//! Every workload at a seconds-sized scale, through the one command, each
//! run a process of its own exactly as the driver starts it; and the
//! committed `BENCHMARK.json` against the table it is generated from.

use perfsuite::table::{benchmark_json, listing, per_layer, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

struct Outcome {
    code: Option<i32>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn perfsuite(args: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfsuite"))
        .args(args)
        .output()
        .expect("start perfsuite");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output from {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let v: serde_json::Value =
        serde_json::from_str(last).unwrap_or_else(|e| panic!("{args:?} printed `{last}`: {e}"));
    let keys: Vec<&String> = v.as_object().expect("a result object").keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{args:?}"
    );
    let metrics = v["metrics"]
        .as_object()
        .expect("metrics")
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                (
                    m["value"].as_f64().expect("a number"),
                    m["unit"].as_str().expect("a unit").to_owned(),
                ),
            )
        })
        .collect();
    Outcome {
        code: out.status.code(),
        correct: v["correct"].as_bool().expect("correct"),
        attempted: v["attempted"].as_u64().expect("attempted"),
        failed: v["failed"].as_u64().expect("failed"),
        metrics,
    }
}

#[test]
fn every_workload_runs_and_checks_its_answers() {
    for w in &WORKLOADS {
        for seed in ["2005", "77"] {
            let o = perfsuite(&[
                "--workload",
                w.name,
                "--seed",
                seed,
                "--seconds",
                "15",
                "--trace",
                "0",
                "--smoke",
            ]);
            assert_eq!(
                (o.code, o.correct, o.failed),
                (Some(0), true, 0),
                "{} seed {seed}",
                w.name
            );
            assert!(o.attempted >= 1);
            let names: Vec<&str> = o.metrics.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            expected.sort_unstable();
            assert_eq!(
                names, expected,
                "{}: exactly the end-to-end metrics",
                w.name
            );
            for m in &END_TO_END {
                let (value, unit) = &o.metrics[m.name];
                assert!(
                    *value > 0.0 && value.is_finite(),
                    "{} {} = {value}",
                    w.name,
                    m.name
                );
                assert_eq!(unit, m.unit);
            }
        }
    }
}

/// Per-layer counts that one seed fixes exactly.
const EXACT: [&str; 16] = [
    "maxbcg.candidates_evaluated",
    "maxbcg.pairs_per_search",
    "maxbcg.logical_reads_per_galaxy",
    "stardb.btree.seeks_per_stmt.fig4",
    "stardb.btree.seeks_per_stmt.agg",
    "stardb.btree.seeks_per_stmt.join",
    "stardb.buffer.logical_reads_per_row.agg",
    "stardb.buffer.evictions",
    "stardb.buffer.physical_writes",
    "stardb.sql.rows_examined_per_result.scan",
    "stardb.zonejoin.pairs_per_match",
    "distfab.rows_shipped_per_stmt.xmatch",
    "distfab.rows_shipped_per_stmt.fig4",
    "stardb.wal.bytes_per_user_byte",
    "stardb.wal.fsyncs_per_commit",
    "stardb.mvcc.cow_pages_per_commit",
];

#[test]
fn traced_runs_emit_every_per_layer_metric_and_counts_repeat() {
    let expected: Vec<String> = {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        names.sort_unstable();
        names
    };
    let mut by_workload = BTreeMap::new();
    for w in &WORKLOADS {
        let args = [
            "--workload",
            w.name,
            "--seed",
            "2005",
            "--trace",
            "1",
            "--smoke",
        ];
        let (a, b) = (perfsuite(&args), perfsuite(&args));
        assert_eq!((a.code, a.correct), (Some(0), true), "{}", w.name);
        assert_eq!(
            a.metrics.keys().cloned().collect::<Vec<_>>(),
            expected,
            "{}: exactly the per-layer metrics",
            w.name
        );
        for name in EXACT {
            assert_eq!(
                a.metrics[name].0, b.metrics[name].0,
                "{}: {name} must repeat exactly",
                w.name
            );
        }
        assert!(a.metrics["obs.overhead_share"].0.is_finite());
        by_workload.insert(w.name, a.metrics);
    }
    // Each layer's own workload drives it.
    let of = |w: &str| &by_workload[w];
    let value = |m: &BTreeMap<String, (f64, String)>, name: &str| m[name].0;
    let maxbcg = of("maxbcg_batch");
    assert!(value(maxbcg, "job_s") > 0.0 && value(maxbcg, "maxbcg.candidates_s") > 0.0);
    assert_eq!(value(maxbcg, "maxbcg.zonecache_hit_ratio"), 1.0);
    let casjobs = of("casjobs_session");
    assert!(
        value(casjobs, "scan_p50_ms") > 0.0
            && value(casjobs, "casjobs.response_bytes_per_row") > 0.0
    );
    assert_eq!(
        value(casjobs, "stardb.buffer.hit_ratio"),
        1.0,
        "the MyDB table is resident"
    );
    let fabric = of("xmatch_fabric");
    assert!(
        value(fabric, "xmatch_s") > 0.0 && value(fabric, "distfab.shards_pruned_ratio.fig4") > 0.0
    );
    assert_eq!(
        value(fabric, "gridsim.attempts_per_job"),
        1.0,
        "no shard subquery was retried"
    );
    let ingest = of("durable_ingest");
    assert!(
        value(ingest, "commit_p50_ms") > 0.0
            && value(ingest, "stardb.wal.bytes_per_user_byte") > 1.0
    );
    assert!(
        value(ingest, "stardb.buffer.physical_reads") > 0.0,
        "the table outgrows the pool"
    );
}

#[test]
fn a_wrong_expected_answer_fails_the_command() {
    for w in &WORKLOADS {
        let o = perfsuite(&["--workload", w.name, "--smoke", "--break-check"]);
        assert_eq!(o.code, Some(1), "{}", w.name);
        assert!(!o.correct && o.failed >= 1, "{}", w.name);
    }
}

#[test]
fn benchmark_json_is_generated_from_the_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate it: perfsuite manifest > BENCHMARK.json"
    );
    let v: serde_json::Value = serde_json::from_str(&committed).expect("valid JSON");
    let keys: Vec<&String> = v.as_object().expect("an object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

#[test]
fn list_names_every_workload_and_metric() {
    let text = listing();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
    {
        assert!(text.contains(name), "list lacks {name}");
    }
    for m in per_layer() {
        assert!(text.contains(&m.name), "list lacks {}", m.name);
    }
}
