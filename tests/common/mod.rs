//! Corpus shared by the planned-vs-reference tests (`sql_plans.rs`), the
//! EXPLAIN ANALYZE tests (`sql_profile.rs`) and the distributed-fabric
//! identity tests (`dist_fabric.rs`): one seeded catalog plus the
//! generated battery of SELECT shapes the paper's workloads write.

use stardb::{Database, DbConfig, Row, Value};

/// A 64-bit LCG: the corpus' only source of variety.
fn lcg(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// Two joined tables with a secondary index, the `Bright` side table of
/// the session's join, a zoned copy of the positions (zone height 0.5°,
/// unit vectors) for the zone-join shape, and `Mixed` ([`load_mixed`]),
/// populated by a seeded LCG so the corpus is reproducible and ties/NULLs
/// actually occur.
pub fn corpus_db() -> Database {
    let mut d = Database::new(DbConfig::in_memory());
    d.execute_sql(
        "CREATE TABLE Galaxy (objid BIGINT PRIMARY KEY, ra FLOAT NOT NULL, \
         dec FLOAT NOT NULL, mag REAL, cls INT, i REAL NOT NULL, gr REAL NOT NULL)",
    )
    .unwrap();
    d.execute_sql("CREATE TABLE Label (cls BIGINT PRIMARY KEY, weight INT)").unwrap();
    d.execute_sql("CREATE TABLE Bright (objid BIGINT NOT NULL, PRIMARY KEY (objid))").unwrap();
    d.execute_sql("CREATE INDEX idx_ra ON Galaxy (ra, dec)").unwrap();
    d.execute_sql(
        "CREATE TABLE Zoned (objid BIGINT PRIMARY KEY, zoneid INT NOT NULL, ra FLOAT NOT NULL, \
         cx FLOAT NOT NULL, cy FLOAT NOT NULL, cz FLOAT NOT NULL)",
    )
    .unwrap();

    let mut next = lcg(0x9E3779B97F4A7C15);
    // `i` and `gr` draw from a stream of their own, so the other columns
    // hold what they held before these two existed.
    let mut next_mag = lcg(2005);
    for objid in 0..240i64 {
        let ra = 170.0 + (next() % 2000) as f64 / 100.0;
        let dec = -5.0 + (next() % 1000) as f64 / 100.0;
        let mag = if next() % 7 == 0 {
            "NULL".to_owned()
        } else {
            format!("{:.2}", 16.0 + (next() % 600) as f64 / 100.0)
        };
        let cls = (next() % 6) as i64;
        let i = 16.0 + (next_mag() % 600) as f64 / 100.0;
        let gr = 0.8 + (next_mag() % 120) as f64 / 100.0;
        d.execute_sql(&format!(
            "INSERT INTO Galaxy VALUES ({objid}, {ra:.2}, {dec:.2}, {mag}, {cls}, {i:.2}, {gr:.2})"
        ))
        .unwrap();
        if i < 19.0 {
            d.execute_sql(&format!("INSERT INTO Bright VALUES ({objid})")).unwrap();
        }
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
    load_mixed(&mut d);
    d
}

/// `Mixed`: a clustered table whose index entries span all five types —
/// index `(i_int INT, i_real REAL, i_flt FLOAT)`, clustering key
/// `(k_txt VARCHAR, k_big BIGINT)` — holding the values a width-normalizing
/// key codec could get wrong: NULLs, `-0.0` beside `0.0`, `REAL`s with no
/// exact decimal, `i32::MIN`/`MAX`, the empty string. The `v_*` columns
/// are in no key. Loaded through the row API: SQL text cannot say `-0.0`.
/// `i_int`/`i_flt` overlap `Zoned.zoneid`/`Zoned.ra`, `k_big` overlaps
/// `Label.cls` and `Galaxy.objid`, so every join shape finds partners.
fn load_mixed(d: &mut Database) {
    d.execute_sql(
        "CREATE TABLE Mixed (k_txt VARCHAR(8) NOT NULL, k_big BIGINT NOT NULL, i_int INT, \
         i_real REAL, i_flt FLOAT, v_txt VARCHAR(8), v_int INT, v_flt FLOAT, \
         PRIMARY KEY (k_txt, k_big))",
    )
    .unwrap();
    d.execute_sql("CREATE INDEX idx_mixed ON Mixed (i_int, i_real, i_flt)").unwrap();
    d.execute_sql("CREATE INDEX idx_mixed_flt ON Mixed (i_flt)").unwrap();
    let mut next = lcg(0x6d69786564);
    let text = |s: &str| Value::Text(s.to_owned());
    for k_big in 0..220i64 {
        let i_int = match next() % 12 {
            0 => Value::Null,
            1 => Value::Int(i32::MIN),
            2 => Value::Int(i32::MAX),
            _ => Value::Int(168 + (next() % 25) as i32),
        };
        let i_real = match next() % 8 {
            0 => Value::Null,
            1 => Value::Real(-0.0),
            2 => Value::Real(0.1),
            _ => Value::Real((next() % 400) as f32 * 0.07 + 0.1),
        };
        let i_flt = match next() % 10 {
            0 => Value::Null,
            1 => Value::Float(-0.0),
            2 => Value::Float(0.0),
            _ => Value::Float(170.0 + (next() % 2000) as f64 / 100.0),
        };
        let v_txt = match next() % 4 {
            0 => Value::Null,
            n => text(["x", "y", "zz"][n as usize - 1]),
        };
        let v_int = if next() % 6 == 0 { Value::Null } else { Value::Int((next() % 10) as i32) };
        let v_flt = match next() % 7 {
            0 => Value::Null,
            1 => Value::Float(-0.0),
            _ => Value::Float((next() % 1000) as f64 / 10.0),
        };
        let k_txt = text(["a", "b", "c", "dd", ""][(next() % 5) as usize]);
        let row = vec![k_txt, Value::BigInt(k_big), i_int, i_real, i_flt, v_txt, v_int, v_flt];
        d.insert("Mixed", Row(row)).unwrap();
    }
}

const MIXED_COLS: [&str; 8] =
    ["k_txt", "k_big", "i_int", "i_real", "i_flt", "v_txt", "v_int", "v_flt"];

/// Conjunctions over index-entry columns of `Mixed` (`{m}` is the alias
/// prefix): most bound the leading index column, one only the second
/// index, one no index at all.
const KEY_PREDS: [&str; 8] = [
    "{m}i_int BETWEEN 172 AND 186",
    "{m}i_int BETWEEN 172 AND 186 AND {m}i_flt >= 0",
    "{m}i_int = 180 AND {m}i_real > 1.05 AND {m}k_big < 150",
    "{m}i_int >= 170 AND {m}k_txt <> 'a' AND {m}i_real IS NOT NULL",
    "{m}i_int > 2000000000",
    "{m}i_int <= -2147483648 AND {m}k_txt >= ''",
    "{m}i_flt <= 0",
    "{m}i_real = 0 AND {m}k_big > 3",
];

/// Predicates over columns no index entry holds.
const ROW_PREDS: [&str; 4] = [
    "{m}v_int < 5",
    "{m}v_txt = 'y'",
    "({m}v_flt IS NULL OR {m}v_int = 3)",
    "{m}v_flt + {m}v_int > 40",
];

/// Every statement shape × every predicate placement over `Mixed`, each
/// with a seeded projection subset and seeded predicates — so every scan
/// source meets every needed-column set it can: index-only, index with
/// lookup, clustered range, full scan; as the driving table and as a join's
/// build side.
fn mixed_corpus(queries: &mut Vec<(String, bool)>) {
    let mut next = lcg(0x636f72707573);
    for placement in 0..4 {
        for shape in 0..14 {
            let (a, b) = (next() as usize, next() as usize);
            let pred = |m: &str| -> String {
                let key = KEY_PREDS[a % KEY_PREDS.len()];
                let row = ROW_PREDS[b % ROW_PREDS.len()];
                match placement {
                    0 => key.to_owned(),
                    1 => row.to_owned(),
                    2 => format!("{key} AND {row}"),
                    _ => String::new(),
                }
                .replace("{m}", m)
            };
            let clause = |lead: &str, m: &str| match pred(m) {
                p if p.is_empty() => String::new(),
                p => format!(" {lead} {p}"),
            };
            // A non-empty subset of the columns, in table order; under a
            // key-only predicate mostly of the five an index entry holds.
            let mask = match next() % 255 + 1 {
                mask if placement == 0 && mask % 3 != 0 => mask % 31 + 1,
                mask => mask,
            };
            let subset: Vec<&str> =
                (0..8).filter(|c| mask >> c & 1 == 1).map(|c| MIXED_COLS[c]).collect();
            let cols = |m: &str| -> String {
                subset.iter().map(|c| format!("{m}{c}")).collect::<Vec<_>>().join(", ")
            };
            let (first, last) = (subset[0], subset[subset.len() - 1]);
            let (sql, ordered) = match shape {
                0 => (format!("SELECT {} FROM Mixed{}", cols(""), clause("WHERE", "")), false),
                1 => (format!("SELECT * FROM Mixed{}", clause("WHERE", "")), false),
                2 => (format!("SELECT COUNT(*) FROM Mixed{}", clause("WHERE", "")), false),
                3 => (
                    format!(
                        "SELECT MIN({first}), MAX({last}), COUNT(*) FROM Mixed{}",
                        clause("WHERE", "")
                    ),
                    false,
                ),
                4 => (
                    format!(
                        "SELECT {first}, COUNT(*), MAX({last}) FROM Mixed{} GROUP BY {first}",
                        clause("WHERE", "")
                    ),
                    false,
                ),
                // The clustering key makes the order total; both of its
                // columns may be hidden sort keys.
                5 => (
                    format!(
                        "SELECT {} FROM Mixed{} ORDER BY {last} DESC, k_txt, k_big LIMIT 9",
                        cols(""),
                        clause("WHERE", "")
                    ),
                    true,
                ),
                6 => (
                    format!("SELECT DISTINCT {} FROM Mixed{}", cols(""), clause("WHERE", "")),
                    false,
                ),
                // Hash joins on the clustering key's BIGINT: driving side…
                7 => (
                    format!(
                        "SELECT {}, l.weight FROM Mixed m JOIN Label l ON m.k_big = l.cls{}",
                        cols("m."),
                        clause("WHERE", "m.")
                    ),
                    false,
                ),
                // …and build side, under the sharded table.
                8 => (
                    format!(
                        "SELECT g.objid, {} FROM Galaxy g JOIN Mixed m ON g.objid = m.k_big \
                         WHERE g.objid < 120{}",
                        cols("m."),
                        clause("AND", "m.")
                    ),
                    false,
                ),
                // Nested loops, both sides.
                9 => (
                    format!(
                        "SELECT {}, l.cls FROM Mixed m JOIN Label l ON m.k_big < l.weight - 6{}",
                        cols("m."),
                        clause("WHERE", "m.")
                    ),
                    false,
                ),
                10 => (
                    format!(
                        "SELECT l.cls, {} FROM Label l JOIN Mixed m ON m.i_int - 170 < l.cls{}",
                        cols("m."),
                        clause("WHERE", "m.")
                    ),
                    false,
                ),
                // Zone joins: `Mixed` probes `Zoned`'s map…
                11 => (
                    format!(
                        "SELECT {}, z.objid FROM Mixed m JOIN Zoned z \
                         ON z.zoneid BETWEEN m.i_int - 1 AND m.i_int + 1 \
                         AND z.ra BETWEEN m.i_flt - 0.6 AND m.i_flt + 0.6{}",
                        cols("m."),
                        clause("WHERE", "m.")
                    ),
                    false,
                ),
                // …and is the map, zones `i32::MIN` and `i32::MAX` included.
                12 => (
                    format!(
                        "SELECT z.objid, {} FROM Zoned z JOIN Mixed m \
                         ON m.i_int BETWEEN z.zoneid - 1 AND z.zoneid + 1 \
                         AND m.i_flt BETWEEN z.ra - 0.6 AND z.ra + 0.6 \
                         WHERE z.objid < 90{}",
                        cols("m."),
                        clause("AND", "m.")
                    ),
                    false,
                ),
                // A count over a join reads the join keys and nothing else.
                _ => (
                    format!(
                        "SELECT COUNT(*) FROM Mixed m JOIN Label l ON m.k_big = l.cls{}",
                        clause("WHERE", "m.")
                    ),
                    false,
                ),
            };
            queries.push((sql, ordered));
        }
    }
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
    // The five statement classes of perfsuite's `casjobs_session` as its
    // `classes.rs` writes them (`fig4` through `region_select` itself), and
    // `maxbcg::region_query::count_in_region`'s statement.
    let window = skycore::SkyRegion::new(176.25, 183.5, -2.75, 3.5);
    queries.push((maxbcg::region_query::region_select(&window), true));
    queries.push((
        "SELECT objid, ra, dec, i FROM Galaxy WHERE i < 18.455 AND gr > 1.4 ORDER BY objid".into(),
        true,
    ));
    queries.push(("SELECT COUNT(*), MIN(i), MAX(ra) FROM Galaxy WHERE i < 20.731".into(), false));
    queries.push(("SELECT objid, i FROM Galaxy ORDER BY i, objid LIMIT 32".into(), true));
    queries.push((
        "SELECT COUNT(*) FROM Galaxy g JOIN Bright b ON g.objid = b.objid \
         WHERE g.ra BETWEEN 177.5 AND 180"
            .into(),
        false,
    ));
    queries.push((
        format!(
            "SELECT COUNT(*) FROM Galaxy WHERE ra BETWEEN {} AND {} AND dec BETWEEN {} AND {}",
            window.ra_min, window.ra_max, window.dec_min, window.dec_max
        ),
        false,
    ));
    mixed_corpus(&mut queries);
    queries
}
