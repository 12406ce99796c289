//! The paper's appendix schema, verbatim — executed through the engine's
//! SQL front end.
//!
//! The appendix ships the complete `CREATE TABLE` script for
//! MySkyServerDr1. This module carries that DDL (modulo the `--/D`
//! documentation comments, which the lexer strips as `--` comments anyway)
//! and executes it statement by statement, proving the SQL surface accepts
//! the paper's own schema. `crate::schema::create_schema` remains the
//! programmatic path the pipeline uses; the two produce identical catalogs,
//! which the tests assert.

use stardb::{Database, DbResult};

/// The appendix `CREATE TABLE` script (documentation comments preserved).
pub const APPENDIX_SCHEMA: &[&str] = &[
    // -- ********************************** Schema
    "CREATE TABLE Kcorr (   --/D expected brightness and color of a BCG at given redshift
        zid int PRIMARY KEY NOT NULL,
        z real,      --/D redshift
        i real,      --/D apparent i petro mag of the BCG @z
        ilim real,   --/D limiting i magnitude @z
        ug real,     --/D K(u-g)
        gr real,     --/D K(g-r)
        ri real,     --/D K(r-i)
        iz real,     --/D K(i-z)
        radius float --/D radius of 1Mpc @z
    )",
    "CREATE TABLE Galaxy (   --/D One row per SDSS Galaxy, extracted from PhotoObjAll
        objid bigint PRIMARY KEY, --/D Unique identifier of SDSS object
        ra float,      --/D Right ascension in degrees
        dec float,     --/D Declination in degrees
        i real,        --/D Magnitude in i-band
        gr real,       --/D color dimension g-r
        ri real,       --/D color dimension r-i
        sigmagr real,  --/D Standard error of g-r (paper: float; stored at
        sigmari real   --/D the TAM file format's f32 so both pipelines see
    )",
    "CREATE TABLE Candidates (  --/D The list of BCG candidates
        objid bigint PRIMARY KEY, --/D Unique identifier of SDSS object
        ra float,   --/D Right ascension in degrees
        dec float,  --/D Declination in degrees
        z float,    --/D redshift
        i real,     --/D magnitude in the i-band
        ngal int,   --/D number of galaxies in the cluster
        chi2 float  --/D chi-squared confidence in cluster
    )",
    "CREATE TABLE Clusters ( --/D Selected BCGs from the candidate list
        objid bigint PRIMARY KEY, --/D Unique identifier of SDSS object
        ra float,   --/D Right ascension in degrees
        dec float,  --/D Declination in degrees
        z float,    --/D redshift
        i real,     --/D magnitude in the i band
        ngal int,   --/D number of galaxies in the cluster
        chi2 float  --/D chi-squared confidence in cluster
    )",
    "CREATE TABLE ClusterGalaxiesMetric (--/D Cluster galaxies inside 1 MPc at R200
        clusterObjID bigint, --/D BCG unique identifier (cluster center)
        galaxyObjID bigint,  --/D Galaxy unique identifier (galaxy part of the cluster)
        distance float       --/D distance between cluster and galaxy
    )",
    // The paper's Zone object is a VIEW over the SDSS Zone table; this
    // engine materializes it as the clustered table spZone rebuilds.
    "CREATE TABLE Zone ( --/D Primary Galaxy view of the zone table in SDSS database
        zoneid int NOT NULL,  --/D Zone number based on 30 arcseconds
        ra float NOT NULL,    --/D Right ascension in degrees
        objid bigint NOT NULL,--/D Unique identifier of SDSS object
        dec float,            --/D Declination in degrees
        cx float,             --/D x, y, z unit vector of object on celestial sphere
        cy float,
        cz float,
        i real,               --/D Galaxy.i, gr, ri: carried so the index covers the
        gr real,              --/D photometric cut that follows every neighbor search
        ri real,              --/D (the SDSS Zone table carries type and mode likewise)
        PRIMARY KEY (zoneid, ra, objid)
    )",
];

/// Execute the appendix DDL against a fresh database.
pub fn create_schema_from_script(db: &mut Database) -> DbResult<()> {
    for stmt in APPENDIX_SCHEMA {
        db.execute_sql(stmt)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;
    use skycore::kcorr::{KcorrConfig, KcorrTable};
    use stardb::{Database, DbConfig};

    #[test]
    fn appendix_ddl_parses_and_creates_everything() {
        let mut db = Database::new(DbConfig::in_memory());
        create_schema_from_script(&mut db).unwrap();
        for t in ["Kcorr", "Galaxy", "Candidates", "Clusters", "ClusterGalaxiesMetric", "Zone"] {
            assert!(db.has_table(t), "missing {t}");
        }
    }

    #[test]
    fn script_schema_matches_programmatic_schema() {
        let mut via_sql = Database::new(DbConfig::in_memory());
        create_schema_from_script(&mut via_sql).unwrap();
        let kcorr = KcorrTable::generate(KcorrConfig::tam());
        let mut via_api = Database::new(DbConfig::in_memory());
        schema::create_schema(&mut via_api, &kcorr).unwrap();

        for table in ["Galaxy", "Candidates", "Clusters", "ClusterGalaxiesMetric", "Zone"] {
            let a = via_sql.schema_of(table).unwrap();
            let b = via_api.schema_of(table).unwrap();
            let names_a: Vec<&str> =
                a.columns().iter().map(|c| c.name.as_str()).collect();
            let names_b: Vec<&str> =
                b.columns().iter().map(|c| c.name.as_str()).collect();
            assert!(
                names_a.iter().zip(&names_b).all(|(x, y)| x.eq_ignore_ascii_case(y)),
                "{table}: {names_a:?} vs {names_b:?}"
            );
            assert_eq!(a.arity(), b.arity(), "{table}");
        }
        // Clustering keys agree.
        assert_eq!(
            via_sql.clustered_key_cols("Zone").unwrap(),
            via_api.clustered_key_cols("Zone").unwrap()
        );
        assert_eq!(
            via_sql.clustered_key_cols("Galaxy").unwrap(),
            via_api.clustered_key_cols("Galaxy").unwrap()
        );
    }

    #[test]
    fn pipeline_runs_on_script_created_schema() {
        use skycore::SkyRegion;
        use skysim::{Sky, SkyConfig};
        // Build the schema from the appendix script, load kcorr rows, and
        // run the stored procedures against it.
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema_from_script(&mut db).unwrap();
        // The appendix declares Kcorr's physics columns as `real`; the
        // engine's pipeline keeps them at `float` so z survives the
        // Candidates round trip at full precision. Swap in the engine's
        // Kcorr definition before loading (the one deliberate deviation).
        db.execute_sql("DROP TABLE Kcorr").unwrap();
        db.create_clustered_table("Kcorr", schema::kcorr_schema(), &["zid"]).unwrap();
        schema::import_kcorr(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 181.2, -0.6, 0.6);
        let sky = Sky::generate(region, &SkyConfig::scaled(0.1), &kcorr, 5150);
        crate::import::sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let scheme = skycore::ZoneScheme::default();
        crate::zone_task::sp_zone(&mut db, &scheme).unwrap();
        assert_eq!(db.row_count("Zone").unwrap(), db.row_count("Galaxy").unwrap());
        // And the SQL surface can query what the procedures wrote.
        let (_, rows) = db
            .execute_sql("SELECT COUNT(*) FROM Galaxy WHERE i < 20")
            .unwrap()
            .rows()
            .unwrap();
        assert!(rows[0].i64(0).unwrap() > 0);
    }
}
