//! The one table of workloads and metrics. `BENCHMARK.json`, `perfsuite
//! list`, the result line of a run and the A/A report are all generated
//! from it, so they cannot drift (`tests/smoke.rs` holds the committed
//! `BENCHMARK.json` against it).

use std::fmt::Write as _;

/// Seconds one run measures for: `run_seconds` of `BENCHMARK.json`, and
/// the `--seconds` every iteration count below was calibrated at.
pub const RUN_SECONDS: u32 = 15;

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfsuite/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perfsuite"];

/// One workload and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "maxbcg_batch",
        why: "The paper's Table 1 job, MaxBcgDb::run: likelihood and zone-neighbour kernels plus B-tree insert and cursor do the work; the SQL planner, fabric, WAL and CasJobs are idle, so they must read no change",
    },
    Workload {
        name: "casjobs_session",
        why: "One user's interactive reads over a resident MyDB table through the JSON wire: planner, column batches, B-tree read path and buffer hits carry the time; MaxBCG kernels, WAL and the fabric are idle",
    },
    Workload {
        name: "xmatch_fabric",
        why: "The sequel paper's cross-match on a 4-node co-sharded fabric plus three statement classes: zone join, ZoneMap, SQL rendering, wire codec and gather merge carry the time, here and nowhere else",
    },
    Workload {
        name: "durable_ingest",
        why: "Writes, eviction, physical reads, WAL fsync and MVCC copy-on-write on a table many times its pool: the only workload larger than the cache, so a read gain paid for by writes shows",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; gated by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these (the driver's contract), so
/// each has one meaning on all four. What a single workload alone can
/// report (`job_s`, `fig4_p50_ms`, `commit_p50_ms`, ...) is per-layer.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "process start to the first measured operation: k-correction table, sky, schema, load, index and fabric build, warm-up; median of three set-ups",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.03,
        what: "VmHWM at exit, so that work or memory moved into a cache shows",
    },
    EndToEnd {
        name: "op_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "lower-decile wall of the workload's headline operation — its wall while the shared box is quiet, which repeats where the median does not: one MaxBcgDb::run (of 7); one round of the five statement classes (of 900); one fabric XMatch (of 28); one full scan of the reopened table, twenty times its pool (of 150)",
    },
    EndToEnd {
        name: "work_p10_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "all the run's timed work, a fixed amount for a given --seconds, at the quiet box's speed: for each kind of operation, its count times its lower-decile wall, summed: jobs; rounds; XMatches + fabric rounds; 512-row inserts (not their commits) + cold scans + chunks of 10 k lookups",
    },
];

/// A metric of one layer, from the `--trace 1` run. No bound.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The module whose cost it is.
    pub layer: &'static str,
    /// The end-to-end metric @ workload it should move.
    pub moves: &'static str,
}

/// Statement classes of `casjobs_session`, in rotation order.
pub const LOCAL_CLASSES: [&str; 5] = ["fig4", "scan", "agg", "topn", "join"];
/// Statement classes of `xmatch_fabric`, in rotation order.
pub const FABRIC_CLASSES: [&str; 3] = ["fig4", "agg", "topn"];

use Better::{Higher, Lower};

/// `(name, unit, better, layer, moves)`; a name ending in `.*` stands for
/// one metric per class in `LOCAL_CLASSES`, in `.+` per class in
/// `FABRIC_CLASSES`, and `*_`/`+_` prefixes likewise.
const PER_LAYER: &[(&str, &str, Better, &str, &str)] = &[
    // What one workload alone reports end to end.
    (
        "job_s",
        "s",
        Lower,
        "workload",
        "is op_p10_ms @ maxbcg_batch",
    ),
    (
        "fig4_p50_ms",
        "ms",
        Lower,
        "workload",
        "op_p10_ms, work_p10_s @ casjobs_session; work_p10_s @ xmatch_fabric",
    ),
    (
        "agg_p50_ms",
        "ms",
        Lower,
        "workload",
        "op_p10_ms, work_p10_s @ casjobs_session; work_p10_s @ xmatch_fabric",
    ),
    (
        "topn_p50_ms",
        "ms",
        Lower,
        "workload",
        "op_p10_ms, work_p10_s @ casjobs_session; work_p10_s @ xmatch_fabric",
    ),
    (
        "scan_p50_ms",
        "ms",
        Lower,
        "workload",
        "op_p10_ms, work_p10_s @ casjobs_session",
    ),
    (
        "join_p50_ms",
        "ms",
        Lower,
        "workload",
        "op_p10_ms, work_p10_s @ casjobs_session",
    ),
    (
        "session_qps",
        "1/s",
        Higher,
        "workload",
        "work_p10_s @ casjobs_session, xmatch_fabric",
    ),
    (
        "xmatch_s",
        "s",
        Lower,
        "workload",
        "is op_p10_ms @ xmatch_fabric",
    ),
    (
        "ingest_rows_per_s",
        "rows/s",
        Higher,
        "workload",
        "work_p10_s @ durable_ingest for its insert half; the commit half moves no bounded metric",
    ),
    (
        "commit_p50_ms",
        "ms",
        Lower,
        "workload",
        "none bounded: most of it is the sandbox's fsync; read it beside stardb.wal.bytes_per_user_byte",
    ),
    (
        "cold_scan_rows_per_s",
        "rows/s",
        Higher,
        "workload",
        "op_p10_ms, work_p10_s @ durable_ingest",
    ),
    (
        "lookup_per_s",
        "1/s",
        Higher,
        "workload",
        "work_p10_s @ durable_ingest",
    ),
    // skysim / skycore
    ("skysim.generate_s", "s", Lower, "skysim", "setup_s @ all"),
    (
        "skycore.kcorr_generate_s",
        "s",
        Lower,
        "skycore",
        "setup_s @ all",
    ),
    // maxbcg
    (
        "maxbcg.import_s",
        "s",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.zone_s",
        "s",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.candidates_s",
        "s",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.clusters_s",
        "s",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.members_s",
        "s",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.zonecache_build_s",
        "s",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch (inside zone_s)",
    ),
    (
        "maxbcg.neighbor_search_us",
        "us",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.candidates_evaluated",
        "count",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.early_reject_ratio",
        "ratio",
        Higher,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.pairs_per_search",
        "count",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.zonecache_hit_ratio",
        "ratio",
        Higher,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    (
        "maxbcg.logical_reads_per_galaxy",
        "count",
        Lower,
        "maxbcg",
        "op_p10_ms @ maxbcg_batch",
    ),
    // stardb.btree
    (
        "stardb.btree.insert_rows_per_s",
        "rows/s",
        Higher,
        "stardb.btree",
        "work_p10_s @ durable_ingest; op_p10_ms @ maxbcg_batch (import, zone)",
    ),
    (
        "stardb.btree.get_us",
        "us",
        Lower,
        "stardb.btree",
        "work_p10_s @ durable_ingest (lookups)",
    ),
    (
        "stardb.btree.scan_raw_rows_per_s",
        "rows/s",
        Higher,
        "stardb.btree",
        "scan/agg_p50_ms @ casjobs_session; op_p10_ms, work_p10_s @ durable_ingest",
    ),
    (
        "stardb.btree.seeks_per_stmt.*",
        "count",
        Lower,
        "stardb.btree",
        "<class>_p50_ms @ casjobs_session, xmatch_fabric",
    ),
    // stardb.buffer
    (
        "stardb.buffer.hit_ratio",
        "ratio",
        Higher,
        "stardb.buffer",
        "op_p10_ms, work_p10_s @ durable_ingest; 1.0 elsewhere",
    ),
    (
        "stardb.buffer.evictions",
        "count",
        Lower,
        "stardb.buffer",
        "work_p10_s @ durable_ingest; 0 elsewhere",
    ),
    (
        "stardb.buffer.physical_reads",
        "count",
        Lower,
        "stardb.buffer",
        "op_p10_ms, work_p10_s @ durable_ingest; 0 elsewhere",
    ),
    (
        "stardb.buffer.physical_writes",
        "count",
        Lower,
        "stardb.buffer",
        "work_p10_s @ durable_ingest (inserts)",
    ),
    (
        "stardb.buffer.logical_reads_per_row.scan",
        "count",
        Lower,
        "stardb.buffer",
        "scan_p50_ms @ casjobs_session",
    ),
    (
        "stardb.buffer.logical_reads_per_row.agg",
        "count",
        Lower,
        "stardb.buffer",
        "agg_p50_ms @ casjobs_session, xmatch_fabric",
    ),
    (
        "stardb.buffer.with_page_ns",
        "ns",
        Lower,
        "stardb.buffer",
        "every metric a little; none by a tenth",
    ),
    // stardb.colbatch
    (
        "stardb.colbatch.fetch_columns_rows_per_s",
        "rows/s",
        Higher,
        "stardb.colbatch",
        "scan/agg/join_p50_ms @ casjobs_session; work_p10_s @ xmatch_fabric",
    ),
    (
        "stardb.colbatch.select_rows_per_s",
        "rows/s",
        Higher,
        "stardb.colbatch",
        "scan/agg_p50_ms @ casjobs_session",
    ),
    (
        "stardb.colbatch.hash_build_rows_per_s",
        "rows/s",
        Higher,
        "stardb.colbatch",
        "join_p50_ms @ casjobs_session",
    ),
    (
        "stardb.colbatch.hash_probe_rows_per_s",
        "rows/s",
        Higher,
        "stardb.colbatch",
        "join_p50_ms @ casjobs_session",
    ),
    (
        "stardb.colbatch.push_wire_rows_per_s",
        "rows/s",
        Higher,
        "stardb.colbatch",
        "xmatch_s, work_p10_s @ xmatch_fabric",
    ),
    // stardb.sql
    (
        "stardb.sql.parse_us.*",
        "us",
        Lower,
        "stardb.sql",
        "<class>_p50_ms @ casjobs_session",
    ),
    (
        "stardb.sql.explain_us.*",
        "us",
        Lower,
        "stardb.sql",
        "<class>_p50_ms @ casjobs_session",
    ),
    (
        "stardb.sql.rows_examined_per_result.*",
        "count",
        Lower,
        "stardb.sql",
        "<class>_p50_ms @ casjobs_session",
    ),
    (
        "stardb.sql.scan_share",
        "ratio",
        Lower,
        "stardb.sql",
        "op_p10_ms @ casjobs_session",
    ),
    (
        "stardb.sql.filter_share",
        "ratio",
        Lower,
        "stardb.sql",
        "op_p10_ms @ casjobs_session",
    ),
    (
        "stardb.sql.topn_share",
        "ratio",
        Lower,
        "stardb.sql",
        "op_p10_ms @ casjobs_session",
    ),
    (
        "stardb.sql.hash_join_share",
        "ratio",
        Lower,
        "stardb.sql",
        "op_p10_ms @ casjobs_session",
    ),
    (
        "stardb.sql.materialized_rows_per_stmt",
        "count",
        Lower,
        "stardb.sql",
        "op_p10_ms @ casjobs_session",
    ),
    (
        "stardb.sql.*_p95_ms",
        "ms",
        Lower,
        "stardb.sql",
        "diagnostic: the tail of <class>_p50_ms",
    ),
    (
        "stardb.sql.*_samples",
        "count",
        Higher,
        "stardb.sql",
        "diagnostic: samples behind <class>_p50_ms",
    ),
    // stardb.zonemap / zone join
    (
        "stardb.zonemap.build_s",
        "s",
        Lower,
        "stardb.zonemap",
        "xmatch_s @ xmatch_fabric (first XMatch after a load)",
    ),
    (
        "stardb.zonemap.probe_ns",
        "ns",
        Lower,
        "stardb.zonemap",
        "xmatch_s @ xmatch_fabric",
    ),
    (
        "stardb.zonejoin.pairs_per_match",
        "count",
        Lower,
        "stardb.zonejoin",
        "xmatch_s @ xmatch_fabric",
    ),
    (
        "stardb.zonejoin.halo_rows",
        "count",
        Lower,
        "stardb.zonejoin",
        "xmatch_s @ xmatch_fabric",
    ),
    (
        "stardb.zonejoin.local_xmatch_s",
        "s",
        Lower,
        "stardb.zonejoin",
        "xmatch_s @ xmatch_fabric (join cost without the fabric)",
    ),
    // stardb.dist / distfab / gridsim
    (
        "distfab.build_s",
        "s",
        Lower,
        "distfab",
        "setup_s @ xmatch_fabric",
    ),
    (
        "distfab.explain_us.+",
        "us",
        Lower,
        "distfab",
        "<class>_p50_ms @ xmatch_fabric",
    ),
    (
        "distfab.shards_pruned_ratio.fig4",
        "ratio",
        Higher,
        "distfab",
        "fig4_p50_ms @ xmatch_fabric",
    ),
    (
        "distfab.rows_shipped_per_stmt.+",
        "count",
        Lower,
        "distfab",
        "<class>_p50_ms @ xmatch_fabric",
    ),
    (
        "distfab.rows_shipped_per_stmt.xmatch",
        "count",
        Lower,
        "distfab",
        "xmatch_s @ xmatch_fabric",
    ),
    (
        "distfab.bytes_per_row_shipped",
        "B",
        Lower,
        "distfab",
        "xmatch_s @ xmatch_fabric",
    ),
    (
        "distfab.gather_share",
        "ratio",
        Lower,
        "distfab",
        "xmatch_s @ xmatch_fabric",
    ),
    (
        "distfab.virtual_parallel_efficiency",
        "ratio",
        Higher,
        "distfab",
        "none today: shards run serially",
    ),
    (
        "stardb.dist.merge_rows_per_s",
        "rows/s",
        Higher,
        "stardb.dist",
        "xmatch_s, topn_p50_ms @ xmatch_fabric",
    ),
    (
        "stardb.dist.decode_wire_rows_per_s",
        "rows/s",
        Higher,
        "stardb.dist",
        "xmatch_s @ xmatch_fabric",
    ),
    (
        "gridsim.scatter_overhead_us",
        "us",
        Lower,
        "gridsim",
        "fig4_p50_ms @ xmatch_fabric",
    ),
    (
        "gridsim.attempts_per_job",
        "ratio",
        Lower,
        "gridsim",
        "1.0, or an operation was retried",
    ),
    // stardb.wal / stardb.mvcc / stardb.store
    (
        "stardb.wal.bytes_per_user_byte",
        "ratio",
        Lower,
        "stardb.wal",
        "commit_p50_ms, ingest_rows_per_s @ durable_ingest",
    ),
    (
        "stardb.wal.fsyncs_per_commit",
        "ratio",
        Lower,
        "stardb.wal",
        "commit_p50_ms @ durable_ingest",
    ),
    (
        "stardb.wal.commit_share",
        "ratio",
        Lower,
        "stardb.wal",
        "ingest_rows_per_s @ durable_ingest",
    ),
    (
        "stardb.wal.checkpoints",
        "count",
        Lower,
        "stardb.wal",
        "ingest_rows_per_s @ durable_ingest",
    ),
    (
        "stardb.wal.commit_max_ms",
        "ms",
        Lower,
        "stardb.wal",
        "ingest_rows_per_s @ durable_ingest (the checkpoint spike a median hides)",
    ),
    (
        "stardb.wal.reopen_s",
        "s",
        Lower,
        "stardb.wal",
        "none bounded: milliseconds after a clean close",
    ),
    (
        "stardb.wal.replayed_pages",
        "count",
        Lower,
        "stardb.wal",
        "stardb.wal.reopen_s @ durable_ingest",
    ),
    (
        "stardb.mvcc.cow_pages_per_commit",
        "count",
        Lower,
        "stardb.mvcc",
        "work_p10_s @ durable_ingest (inserts)",
    ),
    (
        "stardb.store.file_bytes_per_user_byte",
        "ratio",
        Lower,
        "stardb.store",
        "none: the space side of the read/write/space trade",
    ),
    // casjobs
    (
        "casjobs.overhead_share",
        "ratio",
        Lower,
        "casjobs",
        "op_p10_ms, work_p10_s @ casjobs_session",
    ),
    (
        "casjobs.response_bytes_per_row",
        "B",
        Lower,
        "casjobs",
        "fig4/scan_p50_ms @ casjobs_session",
    ),
    (
        "casjobs.extract_rows_per_s",
        "rows/s",
        Higher,
        "casjobs",
        "setup_s @ casjobs_session",
    ),
    // obs
    (
        "obs.overhead_share",
        "ratio",
        Lower,
        "obs",
        "none: traced over untraced op_p10_ms, minus one",
    ),
];

/// Every per-layer metric, class families expanded.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for &(pattern, unit, better, layer, moves) in PER_LAYER {
        let classes: &[&str] = match () {
            _ if pattern.contains('*') => &LOCAL_CLASSES,
            _ if pattern.contains('+') => &FABRIC_CLASSES,
            _ => &[""],
        };
        for class in classes {
            let name = pattern.replace(['*', '+'], class);
            out.push(PerLayer {
                name,
                unit,
                better,
                layer,
                moves,
            });
        }
    }
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let paths: Vec<String> = PATHS.iter().map(|s| json_str(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = per_layer()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        paths.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with each value printed with
/// all its digits. A value that is not a number (a measurement that never
/// happened) is written as 0; the run that produced it has already failed.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64)>) -> String {
    let layers = per_layer();
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| layers.iter().find(|m| m.name == name).map(|m| m.unit))
            .expect("a metric of the table")
    };
    let cells: Vec<String> = metrics
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if v.is_finite() { v } else { 0.0 },
                unit_of(name)
            )
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// `perfsuite list`: every workload with its reason, every metric with
/// unit, layer, bound and the end-to-end metric it should move.
pub fn listing() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workloads (--seconds {RUN_SECONDS}, default --seed 2005)"
    );
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {:<16} {}", w.name, w.why);
    }
    let _ = writeln!(
        out,
        "\nend-to-end metrics (--trace 0; every workload reports each)"
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<12} {:<4} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    let _ = writeln!(
        out,
        "\nper-layer metrics (--trace 1; no bound; 0 where the workload does not drive the layer)"
    );
    for m in per_layer() {
        let _ = writeln!(
            out,
            "  {:<45} {:<7} {:<6} {:<16} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_manifest_limits() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names = BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name.to_owned())
            .chain(END_TO_END.iter().map(|m| m.name.to_owned()))
            .chain(layers.iter().map(|m| m.name.clone()))
        {
            assert!(name_ok(&n), "bad name {n}");
            assert!(names.insert(n.clone()), "{n} is used twice");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(layers.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
