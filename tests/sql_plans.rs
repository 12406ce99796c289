//! Planner corpus: a deterministic battery of generated SELECTs executed
//! twice — once through the planner and the production executor
//! (`PlanOptions::default()`) and once through the reference evaluator
//! (`PlanOptions::naive()`) — asserting byte-identical result sets. The
//! corpus leans on the shapes the paper's workloads write: sargable range
//! predicates on the clustered key and on secondary indexes (Figure 4/5
//! region windows), equi-joins, the zone join, aggregation, and
//! ORDER BY ... LIMIT.
//!
//! Row order is only comparable when the query pins it: without a total
//! ORDER BY, an index range scan legitimately returns index order where
//! the reference full scan returns clustered order, so unordered queries
//! compare as multisets (sorted by row encoding) and queries ordered by
//! the unique key compare positionally.

mod common;

use common::{corpus, corpus_db};
use stardb::sql::execute_with;
use stardb::{Database, PlanOptions, Row};

/// Compared on the wire encoding, not just value equality, so type drift
/// (e.g. INT widening to BIGINT) is caught too.
#[test]
fn planned_pipeline_agrees_with_the_reference_byte_for_byte() {
    let mut d = corpus_db();
    for (sql, ordered) in corpus() {
        let (pc, pr) = execute_with(&mut d, &sql, &PlanOptions::default())
            .unwrap_or_else(|e| panic!("planned {sql}: {e}"))
            .rows()
            .unwrap();
        let (rc, rr) = execute_with(&mut d, &sql, &PlanOptions::naive())
            .unwrap_or_else(|e| panic!("reference {sql}: {e}"))
            .rows()
            .unwrap();
        assert_eq!(pc, rc, "column names diverged: {sql}");
        let mut pe: Vec<Vec<u8>> = pr.iter().map(Row::encode).collect();
        let mut re: Vec<Vec<u8>> = rr.iter().map(Row::encode).collect();
        if !ordered {
            pe.sort();
            re.sort();
        }
        assert_eq!(pe, re, "row encodings diverged: {sql}");
    }
}

fn explain(d: &mut Database, sql: &str) -> Vec<String> {
    let (_, rs) = d.execute_sql(&format!("EXPLAIN {sql}")).unwrap().rows().unwrap();
    rs.iter().map(|r| r[0].as_str().unwrap().to_owned()).collect()
}

#[test]
fn sargable_corpus_queries_explain_as_index_range_scans() {
    let mut d = corpus_db();
    let clustered = explain(&mut d, "SELECT objid FROM Galaxy WHERE objid BETWEEN 10 AND 40");
    assert!(
        clustered[0].contains("clustered index range scan Galaxy"),
        "clustered plan: {clustered:?}"
    );
    let secondary = explain(
        &mut d,
        "SELECT objid FROM Galaxy WHERE ra BETWEEN 172.5 AND 184.5 AND dec BETWEEN -2.5 AND 4.5",
    );
    assert!(
        secondary[0].contains("index range scan Galaxy") && secondary[0].contains("via idx_ra"),
        "secondary plan: {secondary:?}"
    );
    // A non-sargable predicate stays a full scan with a pushed residual.
    let full = explain(&mut d, "SELECT objid FROM Galaxy WHERE ra + dec > 178");
    assert!(
        full[0].contains("scan Galaxy") && !full[0].contains("index range scan"),
        "full plan: {full:?}"
    );
    assert!(full[0].contains("pushed WHERE"), "residual pushed: {full:?}");
    assert!(full[0].contains("reads 3 of 7 cols"), "projected decode: {full:?}");

    // What an index range scan does with its entries is part of the plan.
    // Figure 4: both window predicates run on the `(ra, dec)` key, and the
    // survivors' rows are read for `i`.
    let window = skycore::SkyRegion::new(176.25, 183.5, -2.75, 3.5);
    let fig4 = explain(&mut d, &maxbcg::region_query::region_select(&window));
    assert!(
        fig4[0].contains(
            "via idx_ra (1 key cols bounded, 2 of 2 predicates on key, lookup 4 of 7 cols"
        ),
        "fig4 plan: {fig4:?}"
    );
    // The session's join and `count_in_region` read nothing an entry lacks.
    let join = explain(
        &mut d,
        "SELECT COUNT(*) FROM Galaxy g JOIN Bright b ON g.objid = b.objid \
         WHERE g.ra BETWEEN 177.5 AND 180",
    );
    assert!(
        join[0].contains("via idx_ra (1 key cols bounded, 1 of 1 predicate on key, index-only"),
        "join plan: {join:?}"
    );
    let count = explain(
        &mut d,
        "SELECT COUNT(*) FROM Galaxy WHERE ra BETWEEN 176.25 AND 183.5 \
         AND dec BETWEEN -2.75 AND 3.5",
    );
    assert!(
        count[0].contains("via idx_ra (1 key cols bounded, 2 of 2 predicates on key, index-only"),
        "count_in_region plan: {count:?}"
    );
    // A column outside the entry costs the lookup; the only predicate there
    // is to run on the key is the range itself.
    let lookup = explain(&mut d, "SELECT objid, gr FROM Galaxy WHERE ra BETWEEN 177.5 AND 180");
    assert!(
        lookup[0].contains(
            "via idx_ra (1 key cols bounded, 1 of 1 predicate on key, lookup 3 of 7 cols"
        ),
        "lookup plan: {lookup:?}"
    );
    // A predicate on a column the entry lacks waits for the row.
    let mixed =
        explain(&mut d, "SELECT objid FROM Galaxy WHERE ra BETWEEN 177.5 AND 180 AND mag < 20");
    assert!(
        mixed[0].contains("1 of 2 predicates on key, lookup 3 of 7 cols"),
        "mixed plan: {mixed:?}"
    );
}
