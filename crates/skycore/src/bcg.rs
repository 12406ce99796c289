//! The MaxBCG likelihood machinery, transcribed from the paper's appendix
//! SQL (`fBCGCandidate`, `fIsCluster`, `fBCGr200`,
//! `fGetClusterGalaxiesMetric`).
//!
//! These are *pure* functions over the k-correction table: the database
//! implementation (`maxbcg` crate) and the file-based TAM baseline (`tam`
//! crate) differ only in how they fetch neighbors, so both call into this
//! module for the scoring math. That is exactly the property the paper
//! relies on when it states the SQL implementation computes "the same
//! MaxBCG algorithm".
//!
//! The algorithm, per galaxy:
//!
//! 1. **Filter** — χ² against every row of the k-correction table; keep the
//!    redshifts where `χ² < 7`. Most galaxies fail everywhere and are
//!    discarded without ever doing a spatial search (the early-filtering win
//!    of §2.6).
//! 2. **Windows** — from the passing rows, derive one bounding search
//!    radius and one photometric window, so a single spatial query suffices.
//! 3. **Check neighbors** — count, for each passing redshift, the friends
//!    within that redshift's 1 Mpc radius, magnitude window, and ridge-line
//!    color window.
//! 4. **Pick most likely** — weight the fit by neighbor count:
//!    `chi = max over z of ln(ngal+1) − χ²(z)`, requiring at least one
//!    neighbor.

use crate::kcorr::{KcorrRow, KcorrTable};
use crate::types::{Candidate, Friend, Galaxy};
use serde::{Deserialize, Serialize};

/// Tunable constants of the algorithm. Defaults are the paper's values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BcgParams {
    /// Population dispersion of the g-r ridge line (`@grPopSigma = 0.05`).
    pub gr_pop_sigma: f64,
    /// Population dispersion of the r-i ridge line (`@riPopSigma = 0.06`).
    pub ri_pop_sigma: f64,
    /// Population dispersion of BCG magnitudes (the `0.57` in the χ²).
    pub mag_dispersion: f64,
    /// χ² acceptance threshold (the `< 7` filter).
    pub chisq_cut: f64,
    /// Redshift window when comparing candidates in `fIsCluster`
    /// (`c.z BETWEEN @z - 0.05 AND @z + 0.05`).
    pub z_window: f64,
    /// Tie tolerance when selecting the maximum-likelihood redshift
    /// (`< 0.00000001` in `fBCGCandidate`).
    pub tie_eps: f64,
    /// Likelihood-match tolerance in `fIsCluster` (`< 0.00001`).
    pub chi_match_eps: f64,
}

impl Default for BcgParams {
    fn default() -> Self {
        BcgParams {
            gr_pop_sigma: 0.05,
            ri_pop_sigma: 0.06,
            mag_dispersion: 0.57,
            chisq_cut: 7.0,
            z_window: 0.05,
            tie_eps: 1e-8,
            chi_match_eps: 1e-5,
        }
    }
}

/// The unweighted BCG χ² of a galaxy against one k-correction row:
///
/// ```text
/// (i − k.i)² / 0.57²
///   + (gr − k.gr)² / (σ_gr² + 0.05²)
///   + (ri − k.ri)² / (σ_ri² + 0.06²)
/// ```
#[inline]
pub fn chisq(g: &Galaxy, k: &KcorrRow, p: &BcgParams) -> f64 {
    let di = g.i - k.i;
    let dgr = g.gr - k.gr;
    let dri = g.ri - k.ri;
    di * di / (p.mag_dispersion * p.mag_dispersion)
        + dgr * dgr / (g.sigma_gr * g.sigma_gr + p.gr_pop_sigma * p.gr_pop_sigma)
        + dri * dri / (g.sigma_ri * g.sigma_ri + p.ri_pop_sigma * p.ri_pop_sigma)
}

/// One redshift at which a galaxy is a plausible BCG (a row of the SQL
/// `@chisquare` table variable before neighbor counting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PassingRedshift {
    /// 1-based key into the k-correction table.
    pub zid: u32,
    /// The unweighted χ² at that redshift.
    pub chisq: f64,
}

/// The **Filter** step: all redshifts where the galaxy passes `χ² < cut`.
/// Returns rows in increasing `zid` order. An empty result means the galaxy
/// is discarded before any spatial work — the common case (~97% of
/// galaxies).
///
/// [`chisq`] is a sum of three non-negative terms, so a row can pass only
/// if its magnitude term alone is below the cut; and `KcorrRow::i` rises
/// with the row index ([`KcorrTable::generate`] asserts it), so that term
/// falls and then rises along the table and the rows it admits are one
/// contiguous window. Two binary searches on the magnitude term — the
/// very expression the sum starts with, so the bound holds in floating
/// point too: adding non-negative terms never rounds a sum below its first
/// — find the window, and only rows inside it are evaluated.
pub fn passing_redshifts(g: &Galaxy, kcorr: &KcorrTable, p: &BcgParams) -> Vec<PassingRedshift> {
    let mag_den = p.mag_dispersion * p.mag_dispersion;
    let gr_den = g.sigma_gr * g.sigma_gr + p.gr_pop_sigma * p.gr_pop_sigma;
    let ri_den = g.sigma_ri * g.sigma_ri + p.ri_pop_sigma * p.ri_pop_sigma;
    let mag_term = |k: &KcorrRow| {
        let di = g.i - k.i;
        di * di / mag_den
    };
    let rows = kcorr.rows();
    // Brighter-than-the-galaxy rows whose magnitude term already fails are
    // a prefix; rows up to the galaxy's magnitude plus the fainter ones
    // whose magnitude term still passes are a prefix too.
    let lo = rows.partition_point(|k| k.i < g.i && mag_term(k) >= p.chisq_cut);
    let hi = rows.partition_point(|k| k.i <= g.i || mag_term(k) < p.chisq_cut);
    rows[lo..hi]
        .iter()
        .filter_map(|k| {
            let dgr = g.gr - k.gr;
            let dri = g.ri - k.ri;
            // The three divisions of `chisq`, bit for bit: a reciprocal
            // multiply would move low bits, and catalogs with them.
            let c = mag_term(k) + dgr * dgr / gr_den + dri * dri / ri_den;
            (c < p.chisq_cut).then_some(PassingRedshift { zid: k.zid, chisq: c })
        })
        .collect()
}

/// The bounding search window derived from the passing redshifts — one
/// spatial query covers every passing redshift, then per-redshift cuts
/// narrow it down. Mirrors the `SELECT @rad = MAX(k.radius), ...` block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchWindows {
    /// Maximum 1 Mpc angular radius over passing redshifts, degrees.
    pub radius_deg: f64,
    /// `@imin` — the candidate's own magnitude (friends must be fainter).
    pub i_min: f64,
    /// `@imax` — the faintest limiting magnitude over passing redshifts.
    pub i_max: f64,
    /// Lower g-r bound (`MIN(k.gr) - 2 sigma_pop`).
    pub gr_min: f64,
    /// Upper g-r bound (`MAX(k.gr) + 2 sigma_pop`).
    pub gr_max: f64,
    /// Lower r-i bound.
    pub ri_min: f64,
    /// Upper r-i bound.
    pub ri_max: f64,
}

impl SearchWindows {
    /// `true` when a friend galaxy falls inside the bounding photometric
    /// window **and** the bounding radius (SQL `BETWEEN` semantics:
    /// inclusive bounds; the radius cut is strict as in
    /// `fGetNearbyObjEqZd`).
    #[inline]
    pub fn admits(&self, f: &Friend) -> bool {
        f.distance < self.radius_deg
            && f.i >= self.i_min
            && f.i <= self.i_max
            && f.gr >= self.gr_min
            && f.gr <= self.gr_max
            && f.ri >= self.ri_min
            && f.ri <= self.ri_max
    }
}

/// Compute the bounding windows from the passing redshifts.
///
/// Panics if `passing` is empty — callers must have handled the
/// galaxy-discarded case already.
pub fn search_windows(
    imag: f64,
    passing: &[PassingRedshift],
    kcorr: &KcorrTable,
    p: &BcgParams,
) -> SearchWindows {
    assert!(!passing.is_empty(), "search_windows on a discarded galaxy");
    let mut radius = f64::MIN;
    let mut i_max = f64::MIN;
    let mut gr_min = f64::MAX;
    let mut gr_max = f64::MIN;
    let mut ri_min = f64::MAX;
    let mut ri_max = f64::MIN;
    for pr in passing {
        let k = kcorr.row(pr.zid).expect("passing zid must exist");
        radius = radius.max(k.radius);
        i_max = i_max.max(k.ilim);
        gr_min = gr_min.min(k.gr);
        gr_max = gr_max.max(k.gr);
        ri_min = ri_min.min(k.ri);
        ri_max = ri_max.max(k.ri);
    }
    SearchWindows {
        radius_deg: radius,
        i_min: imag,
        i_max,
        gr_min: gr_min - 2.0 * p.gr_pop_sigma,
        gr_max: gr_max + 2.0 * p.gr_pop_sigma,
        ri_min: ri_min - 2.0 * p.ri_pop_sigma,
        ri_max: ri_max + 2.0 * p.ri_pop_sigma,
    }
}

/// The **Check neighbors** step: for each passing redshift, count the
/// friends inside that redshift's radius, magnitude window
/// (`i BETWEEN imag AND k.ilim`), and ±1σ ridge-line color windows.
/// Returns counts parallel to `passing`.
pub fn count_neighbors(
    passing: &[PassingRedshift],
    friends: &[Friend],
    kcorr: &KcorrTable,
    imag: f64,
    p: &BcgParams,
) -> Vec<u32> {
    passing
        .iter()
        .map(|pr| {
            let k = kcorr.row(pr.zid).expect("passing zid must exist");
            friends
                .iter()
                .filter(|f| {
                    f.distance < k.radius
                        && f.i >= imag
                        && f.i <= k.ilim
                        && f.gr >= k.gr - p.gr_pop_sigma
                        && f.gr <= k.gr + p.gr_pop_sigma
                        && f.ri >= k.ri - p.ri_pop_sigma
                        && f.ri <= k.ri + p.ri_pop_sigma
                })
                .count() as u32
        })
        .collect()
}

/// The **Pick most likely** step: `chi = max(ln(ngal+1) − χ²)` over passing
/// redshifts with at least one neighbor. Returns the index into `passing`
/// of the winning redshift and the weighted likelihood, or `None` when no
/// redshift has a neighbor (the candidate is dropped, matching
/// `WHERE ngal > 0`).
///
/// Ties within `tie_eps` resolve to the lowest redshift, which keeps the
/// output deterministic (the SQL's `Candidates` primary key makes ties
/// effectively single-row there too).
pub fn best_likelihood(
    passing: &[PassingRedshift],
    counts: &[u32],
    p: &BcgParams,
) -> Option<(usize, f64)> {
    debug_assert_eq!(passing.len(), counts.len());
    let chi = passing
        .iter()
        .zip(counts)
        .filter(|(_, &n)| n > 0)
        .map(|(pr, &n)| (f64::from(n) + 1.0).ln() - pr.chisq)
        .fold(f64::NEG_INFINITY, f64::max);
    if chi == f64::NEG_INFINITY {
        return None;
    }
    let idx = passing
        .iter()
        .zip(counts)
        .position(|(pr, &n)| {
            n > 0 && ((f64::from(n) + 1.0).ln() - pr.chisq - chi).abs() < p.tie_eps
        })
        .expect("max likelihood row must exist");
    Some((idx, chi))
}

/// Evaluate one galaxy end-to-end (the whole of `fBCGCandidate`).
///
/// ```
/// use skycore::bcg::{evaluate_candidate, BcgParams};
/// use skycore::kcorr::{KcorrConfig, KcorrTable};
/// use skycore::{Friend, Galaxy};
///
/// let kcorr = KcorrTable::generate(KcorrConfig::sql());
/// let params = BcgParams::default();
/// // A galaxy sitting exactly on the ridge line at z = 0.2 ...
/// let k = *kcorr.nearest(0.2);
/// let bcg = Galaxy::with_derived_errors(1, 180.0, 0.0, k.i, k.gr, k.ri);
/// // ... with three fainter companions inside the 1 Mpc radius.
/// let friends: Vec<Friend> = (0..3)
///     .map(|j| Friend { objid: 2 + j, distance: k.radius * 0.4, i: k.i + 0.5, gr: k.gr, ri: k.ri })
///     .collect();
/// let cand = evaluate_candidate(&bcg, &kcorr, &params, |_| friends.clone()).unwrap();
/// assert_eq!(cand.ngal, 4); // three friends + the BCG itself
/// assert!((cand.z - 0.2).abs() < 0.05);
/// ```
///
/// `fetch_friends` is called at most once, with the bounding
/// [`SearchWindows`]; it must return every galaxy within
/// `windows.radius_deg` degrees of the input galaxy **excluding the galaxy
/// itself**, with distances in degrees. It may pre-filter by the windows or
/// return a superset — this function re-applies [`SearchWindows::admits`]
/// either way, so both the brute-force TAM path and the zone-indexed
/// database path produce identical candidates.
pub fn evaluate_candidate<F>(
    g: &Galaxy,
    kcorr: &KcorrTable,
    p: &BcgParams,
    fetch_friends: F,
) -> Option<Candidate>
where
    F: FnOnce(&SearchWindows) -> Vec<Friend>,
{
    let passing = passing_redshifts(g, kcorr, p);
    if passing.is_empty() {
        return None;
    }
    let windows = search_windows(g.i, &passing, kcorr, p);
    let mut friends = fetch_friends(&windows);
    friends.retain(|f| f.objid != g.objid && windows.admits(f));
    let counts = count_neighbors(&passing, &friends, kcorr, g.i, p);
    let (idx, chi) = best_likelihood(&passing, &counts, p)?;
    let k = kcorr.row(passing[idx].zid).expect("winning zid must exist");
    Some(Candidate {
        objid: g.objid,
        ra: g.ra,
        dec: g.dec,
        z: k.z,
        i: g.i,
        ngal: counts[idx] as i32 + 1,
        chi2: chi,
    })
}

/// `fBCGr200`: the radius, in Mpc, within which the mean density is 200
/// times the mean galaxy density of the sky: `0.17 * ngal^0.51`.
#[inline]
pub fn r200_mpc(ngal: f64) -> f64 {
    0.17 * ngal.powf(0.51)
}

/// The decision of `fIsCluster`: a candidate is a cluster center when its
/// likelihood matches the best likelihood among all candidates in its
/// neighborhood (which includes itself, so `best >= own` always).
#[inline]
pub fn is_cluster_center(own_chi2: f64, neighborhood_best_chi2: f64, p: &BcgParams) -> bool {
    (neighborhood_best_chi2 - own_chi2).abs() < p.chi_match_eps
}

/// The member-retrieval windows of `fGetClusterGalaxiesMetric`: a galaxy
/// belongs to the cluster when it lies within `radius(z) * r200(ngal)`
/// degrees and inside the magnitude/color windows at the cluster redshift.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemberWindows {
    /// `k.radius * r200(ngal)` in degrees.
    pub radius_deg: f64,
    /// `imag - 0.001` (the BCG itself is re-admitted separately).
    pub i_min: f64,
    /// The limiting magnitude at the cluster redshift.
    pub i_max: f64,
    /// Lower g-r bound (`k.gr - sigma_pop`).
    pub gr_min: f64,
    /// Upper g-r bound.
    pub gr_max: f64,
    /// Lower r-i bound.
    pub ri_min: f64,
    /// Upper r-i bound.
    pub ri_max: f64,
}

impl MemberWindows {
    /// Member admission test (inclusive photometric bounds, strict radius).
    #[inline]
    pub fn admits(&self, f: &Friend) -> bool {
        f.distance < self.radius_deg
            && f.i >= self.i_min
            && f.i <= self.i_max
            && f.gr >= self.gr_min
            && f.gr <= self.gr_max
            && f.ri >= self.ri_min
            && f.ri <= self.ri_max
    }
}

/// Build the member windows for a cluster at k-correction row `k` with BCG
/// magnitude `imag` and richness `ngal`.
pub fn member_windows(k: &KcorrRow, imag: f64, ngal: f64, p: &BcgParams) -> MemberWindows {
    MemberWindows {
        radius_deg: k.radius * r200_mpc(ngal),
        i_min: imag - 0.001,
        i_max: k.ilim,
        gr_min: k.gr - p.gr_pop_sigma,
        gr_max: k.gr + p.gr_pop_sigma,
        ri_min: k.ri - p.ri_pop_sigma,
        ri_max: k.ri + p.ri_pop_sigma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcorr::KcorrConfig;

    fn table() -> KcorrTable {
        KcorrTable::generate(KcorrConfig::sql())
    }

    /// A galaxy sitting exactly on the ridge line at redshift `z`.
    fn ridge_galaxy(kcorr: &KcorrTable, z: f64, objid: i64, ra: f64, dec: f64) -> Galaxy {
        let k = kcorr.nearest(z);
        Galaxy::with_derived_errors(objid, ra, dec, k.i, k.gr, k.ri)
    }

    #[test]
    fn ridge_galaxy_has_zero_chisq_at_its_redshift() {
        let t = table();
        let g = ridge_galaxy(&t, 0.2, 1, 180.0, 0.0);
        let k = t.nearest(0.2);
        assert!(chisq(&g, k, &BcgParams::default()) < 1e-18);
    }

    #[test]
    fn ridge_galaxy_passes_filter_near_its_redshift_only() {
        let t = table();
        let p = BcgParams::default();
        let g = ridge_galaxy(&t, 0.2, 1, 180.0, 0.0);
        let passing = passing_redshifts(&g, &t, &p);
        assert!(!passing.is_empty());
        let zs: Vec<f64> = passing.iter().map(|pr| t.row(pr.zid).unwrap().z).collect();
        assert!(zs.iter().all(|&z| (z - 0.2).abs() < 0.1), "passing z: {zs:?}");
        // And the best chisq is at (or adjacent to) the true redshift.
        let best = passing.iter().min_by(|a, b| a.chisq.total_cmp(&b.chisq)).unwrap();
        assert!((t.row(best.zid).unwrap().z - 0.2).abs() < 0.005);
    }

    /// The filter as the paper's SQL states it: every row of the table.
    fn exhaustive(g: &Galaxy, kcorr: &KcorrTable, p: &BcgParams) -> Vec<PassingRedshift> {
        kcorr
            .rows()
            .iter()
            .map(|k| PassingRedshift { zid: k.zid, chisq: chisq(g, k, p) })
            .filter(|pr| pr.chisq < p.chisq_cut)
            .collect()
    }

    /// `passing_redshifts` against the exhaustive loop, χ² compared as bits.
    fn assert_window_is_exhaustive(g: &Galaxy, kcorr: &KcorrTable, p: &BcgParams) -> usize {
        let bits = |v: Vec<PassingRedshift>| -> Vec<(u32, u64)> {
            v.into_iter().map(|pr| (pr.zid, pr.chisq.to_bits())).collect()
        };
        let got = bits(passing_redshifts(g, kcorr, p));
        assert_eq!(got, bits(exhaustive(g, kcorr, p)), "{g:?}");
        got.len()
    }

    #[test]
    fn windowed_filter_equals_the_exhaustive_loop_at_its_edges() {
        let p = BcgParams::default();
        // The magnitude term reaches the cut at |i - k.i| = 0.57 * sqrt(7).
        let reach = p.mag_dispersion * p.chisq_cut.sqrt();
        for t in [table(), KcorrTable::generate(KcorrConfig::tam())] {
            let rows = t.rows();
            let (first, last) = (rows[0], rows[rows.len() - 1]);
            let mut passed = 0;
            let mut check = |i: f64, k: &KcorrRow| {
                // On the ridge in color, so the magnitude term decides.
                let g = Galaxy::with_derived_errors(1, 180.0, 0.0, i, k.gr, k.ri);
                passed += assert_window_is_exhaustive(&g, &t, &p);
            };
            for k in [first, rows[rows.len() / 3], rows[rows.len() / 2], last] {
                // Exactly on a row, and with that row exactly on (and one
                // ulp either side of) each edge of the window.
                check(k.i, &k);
                for edge in [k.i - reach, k.i + reach] {
                    for i in [edge, next_up(edge), next_down(edge)] {
                        check(i, &k);
                    }
                }
            }
            // Below the first row and above the last: inside reach, on the
            // edge, and out of reach altogether.
            for d in [0.5 * reach, reach, 1.5 * reach, 50.0] {
                check(first.i - d, &first);
                check(last.i + d, &last);
            }
            assert!(passed > 0, "some placement must pass somewhere");
            // Values no row can match, and ones that are not numbers.
            for i in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e300, 1e300] {
                let g = Galaxy::with_derived_errors(1, 180.0, 0.0, i, first.gr, first.ri);
                assert_eq!(assert_window_is_exhaustive(&g, &t, &p), 0);
            }
            let mut nan_color = ridge_galaxy(&t, 0.2, 1, 180.0, 0.0);
            nan_color.gr = f64::NAN;
            assert_eq!(assert_window_is_exhaustive(&nan_color, &t, &p), 0);
        }
    }

    fn next_up(v: f64) -> f64 {
        f64::from_bits(if v >= 0.0 { v.to_bits() + 1 } else { v.to_bits() - 1 })
    }

    fn next_down(v: f64) -> f64 {
        -next_up(-v)
    }

    #[test]
    fn windowed_filter_equals_the_exhaustive_loop_across_photometry() {
        // A deterministic sweep over the photometric box a survey fills,
        // at `real` precision like stored galaxies, under the default cut
        // and under cuts loose and tight enough to move both edges.
        let t = table();
        let mut state = 0x2005_u64;
        let mut unit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut passed = 0;
        for n in 0..4000 {
            let i = f64::from((13.0 + 9.0 * unit()) as f32);
            let gr = f64::from((0.2 + 1.8 * unit()) as f32);
            let ri = f64::from((0.1 + 1.1 * unit()) as f32);
            let g = Galaxy::with_derived_errors(n, 180.0, 0.0, i, gr, ri);
            for chisq_cut in [7.0, 0.3, 60.0] {
                let p = BcgParams { chisq_cut, ..BcgParams::default() };
                passed += assert_window_is_exhaustive(&g, &t, &p);
            }
        }
        assert!(passed > 10_000, "the sweep must exercise passing rows, got {passed}");
    }

    #[test]
    fn absurd_colors_fail_everywhere() {
        let t = table();
        let g = Galaxy::with_derived_errors(1, 180.0, 0.0, 17.0, -2.0, 3.5);
        assert!(passing_redshifts(&g, &t, &BcgParams::default()).is_empty());
    }

    #[test]
    fn windows_bound_all_passing_rows() {
        let t = table();
        let p = BcgParams::default();
        let g = ridge_galaxy(&t, 0.15, 1, 180.0, 0.0);
        let passing = passing_redshifts(&g, &t, &p);
        let w = search_windows(g.i, &passing, &t, &p);
        for pr in &passing {
            let k = t.row(pr.zid).unwrap();
            assert!(k.radius <= w.radius_deg);
            assert!(k.ilim <= w.i_max);
            assert!(k.gr - p.gr_pop_sigma >= w.gr_min && k.gr + p.gr_pop_sigma <= w.gr_max);
            assert!(k.ri - p.ri_pop_sigma >= w.ri_min && k.ri + p.ri_pop_sigma <= w.ri_max);
        }
        assert_eq!(w.i_min, g.i);
    }

    /// Build a friend on the ridge at redshift z, a bit fainter than the BCG.
    fn ridge_friend(kcorr: &KcorrTable, z: f64, objid: i64, distance: f64, dmag: f64) -> Friend {
        let k = kcorr.nearest(z);
        Friend { objid, distance, i: k.i + dmag, gr: k.gr, ri: k.ri }
    }

    #[test]
    fn counting_respects_per_redshift_radius() {
        let t = table();
        let p = BcgParams::default();
        let g = ridge_galaxy(&t, 0.2, 1, 180.0, 0.0);
        let passing = passing_redshifts(&g, &t, &p);
        let k = t.nearest(0.2);
        // One friend just inside the 1 Mpc radius, one far outside.
        let friends = vec![
            ridge_friend(&t, 0.2, 2, k.radius * 0.9, 0.5),
            ridge_friend(&t, 0.2, 3, k.radius * 40.0, 0.5),
        ];
        let counts = count_neighbors(&passing, &friends, &t, g.i, &p);
        let idx = passing.iter().position(|pr| pr.zid == k.zid).unwrap();
        assert_eq!(counts[idx], 1);
    }

    #[test]
    fn brighter_friends_are_not_counted() {
        // Friends must satisfy i BETWEEN imag AND ilim: anything brighter
        // than the candidate does not count toward its richness.
        let t = table();
        let p = BcgParams::default();
        let g = ridge_galaxy(&t, 0.2, 1, 180.0, 0.0);
        let passing = passing_redshifts(&g, &t, &p);
        let k = t.nearest(0.2);
        let friends = vec![ridge_friend(&t, 0.2, 2, k.radius * 0.5, -0.5)];
        let counts = count_neighbors(&passing, &friends, &t, g.i, &p);
        assert!(counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn no_neighbors_means_no_candidate() {
        let t = table();
        let p = BcgParams::default();
        let g = ridge_galaxy(&t, 0.2, 1, 180.0, 0.0);
        let cand = evaluate_candidate(&g, &t, &p, |_| Vec::new());
        assert!(cand.is_none());
    }

    #[test]
    fn candidate_with_neighbors_lands_near_true_redshift() {
        let t = table();
        let p = BcgParams::default();
        let g = ridge_galaxy(&t, 0.2, 1, 180.0, 0.0);
        let k = t.nearest(0.2);
        let friends: Vec<Friend> = (0..5)
            .map(|j| ridge_friend(&t, 0.2, 10 + j, k.radius * 0.3, 0.5 + 0.1 * j as f64))
            .collect();
        let cand = evaluate_candidate(&g, &t, &p, |_| friends.clone()).expect("candidate");
        assert_eq!(cand.objid, 1);
        assert!((cand.z - 0.2).abs() < 0.05, "z = {}", cand.z);
        assert_eq!(cand.ngal, 6, "5 friends + the BCG itself");
        assert!(cand.chi2 <= (6f64).ln());
    }

    #[test]
    fn likelihood_grows_with_richness() {
        let t = table();
        let p = BcgParams::default();
        let g = ridge_galaxy(&t, 0.2, 1, 180.0, 0.0);
        let k = t.nearest(0.2);
        let mk = |n: usize| -> Vec<Friend> {
            (0..n)
                .map(|j| ridge_friend(&t, 0.2, 10 + j as i64, k.radius * 0.3, 0.5))
                .collect()
        };
        let poor = evaluate_candidate(&g, &t, &p, |_| mk(2)).unwrap();
        let rich = evaluate_candidate(&g, &t, &p, |_| mk(20)).unwrap();
        assert!(rich.chi2 > poor.chi2);
        assert!(rich.ngal > poor.ngal);
    }

    #[test]
    fn self_is_excluded_from_friends() {
        let t = table();
        let p = BcgParams::default();
        let g = ridge_galaxy(&t, 0.2, 7, 180.0, 0.0);
        // Provider wrongly returns the galaxy itself; evaluate_candidate
        // must drop it, leaving zero neighbors.
        let self_friend = Friend { objid: 7, distance: 0.0, i: g.i, gr: g.gr, ri: g.ri };
        assert!(evaluate_candidate(&g, &t, &p, |_| vec![self_friend]).is_none());
    }

    #[test]
    fn r200_matches_paper_anchor() {
        assert!((r200_mpc(100.0) - 1.78).abs() < 0.01);
        assert!(r200_mpc(10.0) < r200_mpc(100.0));
    }

    #[test]
    fn is_cluster_center_tolerates_float_noise() {
        let p = BcgParams::default();
        assert!(is_cluster_center(1.234567, 1.234567 + 4e-6, &p));
        assert!(!is_cluster_center(1.0, 1.1, &p));
    }

    #[test]
    fn member_windows_shape() {
        let t = table();
        let p = BcgParams::default();
        let k = t.nearest(0.1);
        let w = member_windows(k, 16.0, 25.0, &p);
        assert!((w.radius_deg - k.radius * r200_mpc(25.0)).abs() < 1e-12);
        assert!((w.i_min - 15.999).abs() < 1e-12);
        assert_eq!(w.i_max, k.ilim);
        // The BCG itself passes its own windows at distance 0.
        let bcg = Friend { objid: 1, distance: 0.0, i: 16.0, gr: k.gr, ri: k.ri };
        assert!(w.admits(&bcg));
    }

    #[test]
    fn tie_break_is_deterministic_lowest_redshift() {
        let p = BcgParams::default();
        let passing = vec![
            PassingRedshift { zid: 10, chisq: 1.0 },
            PassingRedshift { zid: 20, chisq: 1.0 },
        ];
        let counts = vec![3, 3];
        let (idx, _) = best_likelihood(&passing, &counts, &p).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn zero_count_rows_never_win() {
        let p = BcgParams::default();
        let passing = vec![
            PassingRedshift { zid: 1, chisq: 0.0 }, // best fit but no neighbors
            PassingRedshift { zid: 2, chisq: 5.0 },
        ];
        let counts = vec![0, 1];
        let (idx, chi) = best_likelihood(&passing, &counts, &p).unwrap();
        assert_eq!(idx, 1);
        assert!((chi - (2f64.ln() - 5.0)).abs() < 1e-12);
    }
}
