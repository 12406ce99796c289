//! The k-correction table: expected brightness, colors, and angular scale of
//! a brightest cluster galaxy (BCG) as a function of redshift.
//!
//! The paper's `Kcorr` table has 1000 rows at redshift steps of 0.001 (the
//! TAM baseline used 100 rows at steps of 0.01) with columns
//! `zid, z, i, ilim, ug, gr, ri, iz, radius`. Its actual values come from
//! unpublished SDSS calibration work, so this module *generates* a table
//! with the published shape:
//!
//! * `i(z)` — apparent i-band magnitude of a BCG, from a fixed absolute
//!   magnitude plus the distance modulus of [`Cosmology`];
//! * `ilim(z)` — the limiting magnitude for counting cluster members,
//!   two magnitudes fainter but never fainter than the survey limit;
//! * `gr(z)`, `ri(z)` — the red-sequence ridge line: smooth, monotonically
//!   reddening colors;
//! * `radius(z)` — the angular radius, in degrees, of 1 Mpc at `z`.
//!
//! Both the database implementation and the TAM file-based baseline consume
//! the same generated table, so their comparison is apples-to-apples, just
//! as in the paper.

use crate::cosmology::Cosmology;
use serde::{Deserialize, Serialize};

/// One row of the k-correction table (`CREATE TABLE Kcorr` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KcorrRow {
    /// 1-based identity key, as in the paper's `zid int identity(1,1)`.
    pub zid: u32,
    /// Redshift.
    pub z: f64,
    /// Apparent i-band Petrosian magnitude of a BCG at `z`.
    pub i: f64,
    /// Limiting i magnitude for cluster-member counting at `z`.
    pub ilim: f64,
    /// K(u-g) ridge-line color.
    pub ug: f64,
    /// K(g-r) ridge-line color.
    pub gr: f64,
    /// K(r-i) ridge-line color.
    pub ri: f64,
    /// K(i-z) ridge-line color.
    pub iz: f64,
    /// Angular radius of 1 Mpc at `z`, in degrees.
    pub radius: f64,
}

/// Parameters controlling table generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KcorrConfig {
    /// Lowest tabulated redshift. The paper's low-redshift cutoff is 0.05
    /// ("all candidates within 0.5 deg as this corresponds to a reasonable
    /// low redshift cutoff"): at z = 0.05 the 1 Mpc radius is ~0.42 deg,
    /// which is what makes the 0.5 deg buffers sufficient everywhere.
    pub z_min: f64,
    /// Redshift step between consecutive rows.
    pub z_step: f64,
    /// Number of rows; row `zid` sits at `z = z_min + (zid - 1) * z_step`.
    pub steps: u32,
    /// Absolute i-band magnitude of the BCG population (h = 1 units).
    pub m_bcg: f64,
    /// Passive-evolution slope added as `q_evolve * z` magnitudes.
    pub q_evolve: f64,
    /// Member counting reaches `i + member_depth` magnitudes deep...
    pub member_depth: f64,
    /// ...but never beyond the survey limiting magnitude.
    pub survey_ilim: f64,
    /// Cosmology used for distances.
    pub cosmology: Cosmology,
}

impl KcorrConfig {
    /// The database implementation's table: redshift steps of 0.001,
    /// 1000 rows (z from 0.05 to 1.049).
    pub fn sql() -> Self {
        KcorrConfig {
            z_min: 0.05,
            z_step: 0.001,
            steps: 1000,
            m_bcg: -23.0,
            q_evolve: 0.8,
            member_depth: 2.0,
            survey_ilim: 21.5,
            cosmology: Cosmology::default(),
        }
    }

    /// The TAM baseline's coarser table: redshift steps of 0.01, 100 rows.
    pub fn tam() -> Self {
        KcorrConfig { z_step: 0.01, steps: 100, ..Self::sql() }
    }
}

impl Default for KcorrConfig {
    fn default() -> Self {
        Self::sql()
    }
}

/// The generated k-correction table. Rows are stored in `zid` order
/// (equivalently: increasing redshift, and — [`KcorrTable::generate`]
/// asserts it — strictly increasing BCG magnitude `i`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KcorrTable {
    config: KcorrConfig,
    rows: Vec<KcorrRow>,
}

/// The red-sequence g-r ridge line as a smooth, monotone function of z.
fn ridge_gr(z: f64) -> f64 {
    0.60 + 1.20 * (2.6 * z).tanh()
}

/// The red-sequence r-i ridge line.
fn ridge_ri(z: f64) -> f64 {
    0.35 + 0.75 * (1.8 * z).tanh()
}

/// The u-g ridge line (stored for schema completeness; MaxBCG never reads it).
fn ridge_ug(z: f64) -> f64 {
    1.50 + 0.80 * (2.0 * z).tanh()
}

/// The i-z ridge line (stored for schema completeness).
fn ridge_iz(z: f64) -> f64 {
    0.20 + 0.50 * z
}

impl KcorrTable {
    /// Generate a table from `config`. Panics on an empty grid, or on one
    /// whose BCG magnitude `i` does not rise strictly with redshift.
    pub fn generate(config: KcorrConfig) -> Self {
        assert!(config.steps > 0 && config.z_step > 0.0, "empty k-correction grid");
        let rows: Vec<KcorrRow> = (1..=config.steps)
            .map(|zid| {
                let z = config.z_min + f64::from(zid - 1) * config.z_step;
                let i = config.m_bcg
                    + config.cosmology.distance_modulus(z)
                    + config.q_evolve * z;
                let ilim = (i + config.member_depth).min(config.survey_ilim);
                KcorrRow {
                    zid,
                    z,
                    i,
                    ilim,
                    ug: ridge_ug(z),
                    gr: ridge_gr(z),
                    ri: ridge_ri(z),
                    iz: ridge_iz(z),
                    radius: config.cosmology.angular_size_deg(z, 1.0),
                }
            })
            .collect();
        // `bcg::passing_redshifts` binary-searches the magnitude column.
        assert!(
            rows.windows(2).all(|w| w[0].i < w[1].i),
            "BCG magnitude must rise strictly with redshift across the grid"
        );
        KcorrTable { config, rows }
    }

    /// The configuration the table was generated from.
    pub fn config(&self) -> &KcorrConfig {
        &self.config
    }

    /// All rows in `zid` order.
    pub fn rows(&self) -> &[KcorrRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows (never the case for generated
    /// tables, but required by the `len` convention).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row lookup by the 1-based `zid` key.
    pub fn row(&self, zid: u32) -> Option<&KcorrRow> {
        if zid == 0 {
            return None;
        }
        self.rows.get(zid as usize - 1)
    }

    /// The row whose redshift is closest to `z` — the counterpart of the
    /// paper's `WHERE ABS(z - @z) < 0.0000001` lookups, tolerant to the
    /// float round-trip through the Candidates table.
    pub fn nearest(&self, z: f64) -> &KcorrRow {
        let idx = ((z - self.config.z_min) / self.config.z_step).round() as i64;
        let idx = idx.clamp(0, self.rows.len() as i64 - 1) as usize;
        &self.rows[idx]
    }

    /// The largest 1 Mpc angular radius in the table (attained at the lowest
    /// redshift); an upper bound used to size buffers.
    pub fn max_radius_deg(&self) -> f64 {
        // Radius decreases with z below z~1, so row 0 holds the max, but do
        // not rely on that here.
        self.rows.iter().map(|r| r.radius).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_table_has_1000_rows_at_step_0001() {
        let t = KcorrTable::generate(KcorrConfig::sql());
        assert_eq!(t.len(), 1000);
        assert!((t.rows()[0].z - 0.05).abs() < 1e-12);
        assert!((t.rows()[999].z - 1.049).abs() < 1e-12);
    }

    #[test]
    fn tam_table_has_100_rows_at_step_001() {
        let t = KcorrTable::generate(KcorrConfig::tam());
        assert_eq!(t.len(), 100);
        assert!((t.rows()[0].z - 0.05).abs() < 1e-12);
        assert!((t.rows()[99].z - 1.04).abs() < 1e-12);
    }

    #[test]
    fn zid_lookup_is_one_based() {
        let t = KcorrTable::generate(KcorrConfig::tam());
        assert!(t.row(0).is_none());
        assert_eq!(t.row(1).unwrap().zid, 1);
        assert_eq!(t.row(100).unwrap().zid, 100);
        assert!(t.row(101).is_none());
    }

    #[test]
    fn brightness_dims_with_redshift() {
        let t = KcorrTable::generate(KcorrConfig::sql());
        let rows = t.rows();
        for w in rows.windows(2) {
            assert!(w[1].i > w[0].i, "i must increase with z");
        }
        // Observable range for an SDSS-like survey.
        assert!(rows[49].i > 10.0 && rows[999].i < 22.0);
    }

    #[test]
    fn member_window_narrows_at_high_redshift() {
        // Once i + depth hits the survey limit, ilim - i shrinks: distant
        // clusters have fewer countable members, as in the real survey.
        let t = KcorrTable::generate(KcorrConfig::sql());
        let low = t.nearest(0.05);
        let high = t.nearest(0.9);
        assert!((low.ilim - low.i - 2.0).abs() < 1e-9);
        assert!(high.ilim - high.i < 2.0);
        for r in t.rows() {
            assert!(r.ilim >= r.i, "ilim must not be brighter than the BCG");
            assert!(r.ilim <= 21.5 + 1e-9);
        }
    }

    #[test]
    fn colors_redden_monotonically() {
        let t = KcorrTable::generate(KcorrConfig::sql());
        for w in t.rows().windows(2) {
            assert!(w[1].gr >= w[0].gr);
            assert!(w[1].ri >= w[0].ri);
            assert!(w[1].ug >= w[0].ug);
            assert!(w[1].iz >= w[0].iz);
        }
    }

    #[test]
    fn radius_shrinks_with_redshift() {
        let t = KcorrTable::generate(KcorrConfig::sql());
        for w in t.rows().windows(2) {
            assert!(w[1].radius < w[0].radius);
        }
        // 1 Mpc at z = 0.05 is ~0.4 deg in h=1 units.
        let r = t.nearest(0.05).radius;
        assert!((0.3..0.5).contains(&r), "radius at z=0.05: {r}");
        assert_eq!(t.max_radius_deg(), t.rows()[0].radius);
        // The low-redshift cutoff keeps every radius under the 0.5 deg
        // buffer the implementations rely on.
        assert!(t.max_radius_deg() < 0.5);
    }

    #[test]
    fn nearest_snaps_to_grid() {
        let t = KcorrTable::generate(KcorrConfig::sql());
        assert_eq!(t.nearest(0.05).zid, 1);
        assert_eq!(t.nearest(0.0503).zid, 1, "0.0503 rounds to the 0.050 row");
        assert_eq!(t.nearest(0.0506).zid, 2);
        assert_eq!(t.nearest(0.2).zid, 151);
        // Values off either end clamp instead of panicking.
        assert_eq!(t.nearest(0.0).zid, 1);
        assert_eq!(t.nearest(5.0).zid, 1000);
    }

    #[test]
    fn both_grids_agree_where_they_overlap() {
        // The TAM grid is a 10x decimation of the SQL grid; physics columns
        // must agree on shared redshifts.
        let sql = KcorrTable::generate(KcorrConfig::sql());
        let tam = KcorrTable::generate(KcorrConfig::tam());
        for row in tam.rows() {
            if row.z > sql.rows().last().unwrap().z {
                break; // the coarse grid reaches slightly deeper
            }
            let fine = sql.nearest(row.z);
            assert!((fine.z - row.z).abs() < 1e-12);
            assert!((fine.i - row.i).abs() < 1e-12);
            assert!((fine.gr - row.gr).abs() < 1e-12);
            assert!((fine.radius - row.radius).abs() < 1e-12);
        }
    }
}
