//! The MaxBCG database schema — the `CREATE TABLE` section of the paper's
//! appendix, expressed against `stardb`.
//!
//! Column types follow the paper: `real` (f32) for photometry, `float`
//! (f64) for coordinates and derived quantities, `bigint` object ids. The
//! f32 rounding of photometry is deliberate and load-bearing: the TAM file
//! format stores the same fields at the same precision, so both
//! implementations see bit-identical inputs.

use skycore::kcorr::KcorrTable;
use stardb::{Column, DataType, Database, DbResult, Row, Schema, Value};

/// `Kcorr`: expected brightness and color of a BCG at a given redshift.
pub fn kcorr_schema() -> Schema {
    Schema::new(vec![
        Column::new("zid", DataType::Int),
        Column::new("z", DataType::Float),
        Column::new("i", DataType::Float),
        Column::new("ilim", DataType::Float),
        Column::new("ug", DataType::Float),
        Column::new("gr", DataType::Float),
        Column::new("ri", DataType::Float),
        Column::new("iz", DataType::Float),
        Column::new("radius", DataType::Float),
    ])
}

/// `Galaxy`: one row per galaxy, extracted from the archive catalog.
pub fn galaxy_schema() -> Schema {
    Schema::new(vec![
        Column::new("objid", DataType::BigInt),
        Column::new("ra", DataType::Float),
        Column::new("dec", DataType::Float),
        Column::new("i", DataType::Real),
        Column::new("gr", DataType::Real),
        Column::new("ri", DataType::Real),
        Column::new("sigmagr", DataType::Real),
        Column::new("sigmari", DataType::Real),
    ])
}

/// The positional columns of a zoned table, clustered on
/// `(zoneid, ra, objid)`: what `Zone` and the XMatch survey tables share.
fn zoned_position_columns() -> Vec<Column> {
    vec![
        Column::new("zoneid", DataType::Int),
        Column::new("ra", DataType::Float),
        Column::new("objid", DataType::BigInt),
        Column::new("dec", DataType::Float),
        Column::new("cx", DataType::Float),
        Column::new("cy", DataType::Float),
        Column::new("cz", DataType::Float),
    ]
}

/// A zoned survey table of bare positions (the XMatch workload's shape).
pub fn survey_schema() -> Schema {
    Schema::new(zoned_position_columns())
}

/// `Zone`: the spatial index table, clustered on `(zoneid, ra, objid)`.
/// `i, gr, ri` are `Galaxy`'s columns carried beside the coordinates — as
/// the SDSS Zone table carries `type` and `mode` — so the table covers the
/// whole neighbor predicate, photometric windows included.
pub fn zone_schema() -> Schema {
    let mut columns = zoned_position_columns();
    columns.extend([
        Column::new("i", DataType::Real),
        Column::new("gr", DataType::Real),
        Column::new("ri", DataType::Real),
    ]);
    Schema::new(columns)
}

/// `Candidates` / `Clusters`: the BCG candidate list and the selected
/// cluster catalog share a shape.
pub fn candidates_schema() -> Schema {
    Schema::new(vec![
        Column::new("objid", DataType::BigInt),
        Column::new("ra", DataType::Float),
        Column::new("dec", DataType::Float),
        Column::new("z", DataType::Float),
        Column::new("i", DataType::Real),
        Column::new("ngal", DataType::Int),
        Column::new("chi2", DataType::Float),
    ])
}

/// `ClusterGalaxiesMetric`: cluster membership rows (no primary key in the
/// paper — a heap).
pub fn members_schema() -> Schema {
    Schema::new(vec![
        Column::new("clusterObjID", DataType::BigInt),
        Column::new("galaxyObjID", DataType::BigInt),
        Column::new("distance", DataType::Float),
    ])
}

/// Create every MaxBCG table in `db` and load the k-correction table.
pub fn create_schema(db: &mut Database, kcorr: &KcorrTable) -> DbResult<()> {
    db.create_clustered_table("Kcorr", kcorr_schema(), &["zid"])?;
    db.create_clustered_table("Galaxy", galaxy_schema(), &["objid"])?;
    db.create_clustered_table("Zone", zone_schema(), &["zoneid", "ra", "objid"])?;
    db.create_clustered_table("Candidates", candidates_schema(), &["objid"])?;
    db.create_clustered_table("Clusters", candidates_schema(), &["objid"])?;
    db.create_table("ClusterGalaxiesMetric", members_schema())?;
    import_kcorr(db, kcorr)
}

/// Load (or reload) the `Kcorr` table.
pub fn import_kcorr(db: &mut Database, kcorr: &KcorrTable) -> DbResult<()> {
    db.truncate("Kcorr")?;
    for r in kcorr.rows() {
        db.insert(
            "Kcorr",
            Row(vec![
                Value::Int(r.zid as i32),
                Value::Float(r.z),
                Value::Float(r.i),
                Value::Float(r.ilim),
                Value::Float(r.ug),
                Value::Float(r.gr),
                Value::Float(r.ri),
                Value::Float(r.iz),
                Value::Float(r.radius),
            ]),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycore::kcorr::KcorrConfig;
    use stardb::DbConfig;

    #[test]
    fn schema_creates_all_paper_tables() {
        let mut db = Database::new(DbConfig::in_memory());
        let kcorr = KcorrTable::generate(KcorrConfig::tam());
        create_schema(&mut db, &kcorr).unwrap();
        for t in ["Kcorr", "Galaxy", "Zone", "Candidates", "Clusters", "ClusterGalaxiesMetric"] {
            assert!(db.has_table(t), "missing {t}");
        }
        assert_eq!(db.row_count("Kcorr").unwrap(), 100);
    }

    #[test]
    fn kcorr_lookup_by_zid() {
        let mut db = Database::new(DbConfig::in_memory());
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        create_schema(&mut db, &kcorr).unwrap();
        let row = db.get("Kcorr", &[Value::Int(500)]).unwrap().unwrap();
        assert!(
            (row.f64(1).unwrap() - 0.549).abs() < 1e-12,
            "zid 500 is z = 0.05 + 499 * 0.001"
        );
        assert_eq!(db.row_count("Kcorr").unwrap(), 1000);
    }
}
