//! Corpus shared by the planned-vs-reference tests (`sql_plans.rs`), the
//! EXPLAIN ANALYZE tests (`sql_profile.rs`) and the distributed-fabric
//! identity tests (`dist_fabric.rs`): one seeded catalog plus the
//! generated battery of SELECT shapes the paper's workloads write.

use stardb::{Database, DbConfig};

/// Two joined tables with a secondary index plus a zoned copy of the
/// positions (zone height 0.5°, unit vectors) for the zone-join shape,
/// populated by a seeded LCG so the corpus is reproducible and ties/NULLs
/// actually occur.
pub fn corpus_db() -> Database {
    let mut d = Database::new(DbConfig::in_memory());
    d.execute_sql(
        "CREATE TABLE Galaxy (objid BIGINT PRIMARY KEY, ra FLOAT NOT NULL, \
         dec FLOAT NOT NULL, mag REAL, cls INT)",
    )
    .unwrap();
    d.execute_sql("CREATE TABLE Label (cls BIGINT PRIMARY KEY, weight INT)").unwrap();
    d.execute_sql("CREATE INDEX idx_ra ON Galaxy (ra, dec)").unwrap();
    d.execute_sql(
        "CREATE TABLE Zoned (objid BIGINT PRIMARY KEY, zoneid INT NOT NULL, ra FLOAT NOT NULL, \
         cx FLOAT NOT NULL, cy FLOAT NOT NULL, cz FLOAT NOT NULL)",
    )
    .unwrap();

    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    for objid in 0..240i64 {
        let ra = 170.0 + (next() % 2000) as f64 / 100.0;
        let dec = -5.0 + (next() % 1000) as f64 / 100.0;
        let mag = if next() % 7 == 0 {
            "NULL".to_owned()
        } else {
            format!("{:.2}", 16.0 + (next() % 600) as f64 / 100.0)
        };
        let cls = (next() % 6) as i64;
        d.execute_sql(&format!(
            "INSERT INTO Galaxy VALUES ({objid}, {ra:.2}, {dec:.2}, {mag}, {cls})"
        ))
        .unwrap();
        let zoneid = ((dec + 90.0) / 0.5).floor();
        let (r, c) = (ra.to_radians(), dec.to_radians());
        let (cx, cy, cz) = (c.cos() * r.cos(), c.cos() * r.sin(), c.sin());
        d.execute_sql(&format!(
            "INSERT INTO Zoned VALUES ({objid}, {zoneid}, {ra:.2}, {cx:.12}, {cy:.12}, {cz:.12})"
        ))
        .unwrap();
    }
    for cls in 0..6i64 {
        d.execute_sql(&format!("INSERT INTO Label VALUES ({cls}, {})", 10 - cls)).unwrap();
    }
    d
}

/// The generated corpus. `ordered` marks queries whose ORDER BY pins a
/// total order (unique leading key), enabling positional comparison.
pub fn corpus() -> Vec<(String, bool)> {
    let mut queries = Vec::new();
    // Sargable clustered-key shapes.
    for (lo, hi) in [(10, 40), (0, 239), (200, 500)] {
        queries.push((
            format!("SELECT objid, ra FROM Galaxy WHERE objid BETWEEN {lo} AND {hi}"),
            false,
        ));
        queries.push((format!("SELECT * FROM Galaxy WHERE objid >= {lo} AND objid < {hi}"), false));
    }
    // Sargable secondary-index shapes (the Figure 4 region window).
    for (ra_lo, ra_hi) in [(172.5, 184.5), (180.0, 181.0)] {
        queries.push((
            format!(
                "SELECT objid FROM Galaxy WHERE ra BETWEEN {ra_lo} AND {ra_hi} \
                 AND dec BETWEEN -2.5 AND 4.5"
            ),
            false,
        ));
        queries.push((
            format!(
                "SELECT objid, mag FROM Galaxy WHERE ra > {ra_lo} AND ra <= {ra_hi} \
                 AND mag < 20 ORDER BY objid"
            ),
            true,
        ));
    }
    // Non-sargable residuals and NULL handling.
    queries.push(("SELECT objid FROM Galaxy WHERE mag IS NULL ORDER BY objid".into(), true));
    queries.push(("SELECT objid FROM Galaxy WHERE ra + dec > 178 AND cls = 2".into(), false));
    // Joins: equi (hash path) and inequality (nested loop), with pushdown.
    queries.push((
        "SELECT g.objid, l.weight FROM Galaxy g JOIN Label l ON g.cls = l.cls \
         WHERE g.ra BETWEEN 175 AND 182 AND l.weight > 6 ORDER BY g.objid"
            .into(),
        true,
    ));
    queries.push((
        "SELECT g.objid FROM Galaxy g CROSS JOIN Label l \
         WHERE g.cls = l.cls AND g.objid < 30 ORDER BY g.objid"
            .into(),
        true,
    ));
    queries.push((
        "SELECT g.objid, l.cls FROM Galaxy g JOIN Label l ON g.cls < l.weight - 6 \
         WHERE g.objid BETWEEN 5 AND 25"
            .into(),
        false,
    ));
    // Aggregation over planned scans.
    for agg in ["COUNT(*)", "SUM(cls)", "MIN(mag)", "MAX(ra)", "AVG(dec)"] {
        queries.push((
            format!("SELECT cls, {agg} FROM Galaxy WHERE objid BETWEEN 20 AND 200 GROUP BY cls"),
            false,
        ));
    }
    queries.push((
        "SELECT COUNT(*) FROM Galaxy WHERE ra BETWEEN 173 AND 184 AND dec BETWEEN -2 AND 4"
            .into(),
        false,
    ));
    // Top-N against full sorts, with ties on cls.
    for n in [1, 7, 500] {
        queries.push((
            format!("SELECT objid, cls FROM Galaxy ORDER BY cls DESC, objid LIMIT {n}"),
            true,
        ));
    }
    queries.push(("SELECT DISTINCT cls FROM Galaxy WHERE objid < 100 ORDER BY cls".into(), true));
    queries.push(("SELECT DISTINCT cls FROM Galaxy ORDER BY cls DESC LIMIT 3".into(), true));
    // HAVING, on a selected aggregate and on one that is not selected.
    queries.push((
        "SELECT cls, COUNT(*) FROM Galaxy WHERE objid BETWEEN 20 AND 200 GROUP BY cls \
         HAVING COUNT(*) > 28"
            .into(),
        false,
    ));
    queries.push((
        "SELECT cls, MIN(mag) FROM Galaxy GROUP BY cls HAVING MAX(ra) < 189.9 AND cls > 0".into(),
        false,
    ));
    // A global aggregate over an empty range: COUNT is 0, the rest NULL.
    queries.push((
        "SELECT COUNT(*), SUM(cls), MIN(mag), MAX(ra), AVG(dec) FROM Galaxy \
         WHERE objid BETWEEN 1000 AND 2000"
            .into(),
        false,
    ));
    // ORDER BY a column the projection drops (hidden sort column), and
    // descending over NULLs (NULL sorts first, so DESC puts it last).
    queries.push(("SELECT mag FROM Galaxy WHERE objid < 60 ORDER BY ra, objid".into(), true));
    queries.push((
        "SELECT objid, mag FROM Galaxy WHERE objid < 80 ORDER BY mag DESC, objid".into(),
        true,
    ));
    // Integer columns against FLOAT literals: residual and key bounds.
    queries.push(("SELECT objid, cls FROM Galaxy WHERE cls > 2.5 AND objid < 100".into(), false));
    queries.push(("SELECT objid FROM Galaxy WHERE cls = 3.0 AND objid >= 19.5".into(), false));
    queries.push(("SELECT cls, weight FROM Label WHERE cls >= 1.5 AND weight < 8.5".into(), false));
    // A three-table join.
    queries.push((
        "SELECT g.objid, l.weight, z.zoneid FROM Galaxy g JOIN Label l ON g.cls = l.cls \
         JOIN Zoned z ON z.objid = g.objid WHERE g.objid < 50 AND l.weight > 5 ORDER BY g.objid"
            .into(),
        true,
    ));
    // The zone-join shape: zone band + RA window + dot-product residual.
    queries.push((
        "SELECT a.objid AS id1, b.objid AS id2 FROM Zoned a JOIN Zoned b \
         ON b.zoneid BETWEEN a.zoneid - 1 AND a.zoneid + 1 \
         AND b.ra BETWEEN a.ra - 0.6 AND a.ra + 0.6 \
         AND a.cx * b.cx + a.cy * b.cy + a.cz * b.cz > 0.99996 \
         WHERE a.objid < b.objid ORDER BY id1, id2"
            .into(),
        true,
    ));
    queries
}
