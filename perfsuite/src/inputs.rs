//! Seed-generated inputs: the k-correction table and the synthetic sky
//! every workload loads, sized in rows, and timed for the `skycore` /
//! `skysim` per-layer metrics.

use crate::harness::{timed, DEFAULT_SEED};
use skycore::kcorr::{KcorrConfig, KcorrTable};
use skycore::SkyRegion;
use skysim::{Sky, SkyConfig};

/// What a workload starts from.
pub struct Inputs {
    pub kcorr: KcorrTable,
    pub sky: Sky,
    /// Wall of `KcorrTable::generate`.
    pub kcorr_generate_s: f64,
    /// Wall of `Sky::generate` (all calls).
    pub generate_s: f64,
}

/// Field galaxies per deg² of `SkyConfig::paper()`; clusters add ~2 %.
const PAPER_DENSITY: f64 = 14_300.0;

/// A region `dec_span`° high, from `(ra_min, dec_min)`, wide enough to
/// hold about `rows` galaxies at the paper's density.
pub fn region_of(rows: usize, ra_min: f64, dec_min: f64, dec_span: f64) -> SkyRegion {
    let ra_span = rows as f64 / PAPER_DENSITY / dec_span;
    SkyRegion::new(ra_min, ra_min + ra_span, dec_min, dec_min + dec_span)
}

/// The whole sky from `seed`, at the paper's density.
pub fn generate(region: SkyRegion, seed: u64) -> Inputs {
    let (kcorr, kcorr_generate_s) = timed(|| KcorrTable::generate(KcorrConfig::sql()));
    let (sky, generate_s) = timed(|| Sky::generate(region, &SkyConfig::paper(), &kcorr, seed));
    Inputs {
        kcorr,
        sky,
        kcorr_generate_s,
        generate_s,
    }
}

/// The field population from `seed`, the injected clusters from the
/// pinned catalogue seed, at `scale` times the paper's density.
///
/// MaxBCG's cost is set by the few hundred injected clusters: their
/// power-law richness and redshift decide how many galaxies pass the χ²
/// filter and how wide each neighbour search is, and a few hundred draws
/// from a heavy tail do not average out (job time moved ±12 % between
/// seeds, against ±1 % once the cluster population is held). So the
/// clusters are one fixed population and `--seed` draws the ~120 k field
/// galaxies around them, which do average out.
pub fn generate_pinned_clusters(region: SkyRegion, scale: f64, seed: u64) -> Inputs {
    let (kcorr, kcorr_generate_s) = timed(|| KcorrTable::generate(KcorrConfig::sql()));
    let mut field_only = SkyConfig::scaled(scale);
    field_only.clusters.density_per_deg2 = 0.0;
    let mut clusters_only = SkyConfig::scaled(scale);
    clusters_only.field.density_per_deg2 = 0.0;
    let (sky, generate_s) = timed(|| {
        let mut sky = Sky::generate(region, &field_only, &kcorr, seed);
        let clusters = Sky::generate(region, &clusters_only, &kcorr, DEFAULT_SEED);
        // Cluster galaxies take the object ids after the field's.
        let base = sky.galaxies.len() as i64;
        sky.galaxies
            .extend(clusters.galaxies.iter().map(|g| skycore::types::Galaxy {
                objid: g.objid + base,
                ..*g
            }));
        sky.truth = clusters
            .truth
            .iter()
            .map(|c| skysim::TrueCluster {
                bcg_objid: c.bcg_objid + base,
                ..*c
            })
            .collect();
        sky
    });
    Inputs {
        kcorr,
        sky,
        kcorr_generate_s,
        generate_s,
    }
}
