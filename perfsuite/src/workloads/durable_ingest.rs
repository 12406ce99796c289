//! `durable_ingest` — the write path and the cold read path: a durable
//! database (`FsyncPolicy::Commit`, 8 MiB WAL segments, a 1024-frame =
//! 8 MiB pool) ingests galaxies in clustered-key order, 512 rows per
//! commit, a snapshot pinned at the half-way commit; then `close`,
//! reopen, full scans and seed-random `get`s of a table many times the
//! pool. The headline operation is the cold full scan. The wall of
//! `commit()` is mostly fsync (≈ 0.2 ms without it, 0.5–1.4 ms with) on
//! this sandbox's virtual disk, and the `insert_rows` before it turns
//! fast and slow with it, so no quantile of either repeats between runs
//! of one build: the commit is reported per layer only, the insert counts
//! towards `work_p10_s` alone. The log fsyncs still happen, between the
//! timed inserts.

use super::{Measured, Workload};
use crate::harness::{ratio, scratch_dir, timed, Config, CounterDelta, Digest, Rng, Run};
use crate::inputs::{generate, region_of, Inputs};
use crate::stats::{after_warmup, median};
use crate::trace::span;
use maxbcg::import::galaxy_row;
use skycore::types::Galaxy;
use skysim::Sky;
use stardb::{Database, DbConfig, DbResult, FsyncPolicy, Row, Value, WalConfig};
use std::path::{Path, PathBuf};

pub struct DurableIngest;

const ROWS_PER_COMMIT: usize = 512;
const POOL_FRAMES: usize = 1024;
/// Commits, full scans and lookups per run at `table::RUN_SECONDS`:
/// ≈ 1.2 M rows ≈ 160 MiB of pages, twenty times the pool.
const COMMITS: usize = 2_400;
const SCANS: usize = 150;
const LOOKUPS: usize = 2_600_000;
/// Lookups per timed sample.
const LOOKUP_CHUNK: usize = 10_000;
/// Share of a timed lifecycle the set-up's warm-up one runs.
const WARM_SHARE: f64 = 0.25;

fn open(dir: &Path) -> DbResult<Database> {
    let wal = WalConfig {
        fsync: FsyncPolicy::Commit,
        segment_bytes: 8 << 20,
    };
    Database::open(dir, DbConfig::tiny(POOL_FRAMES), wal)
}

pub struct Ready {
    inputs: Inputs,
    /// The database the last pass left behind, reopened, for `verify`.
    last: Option<(Database, Acked)>,
    dirs: Vec<PathBuf>,
}

/// What the ingest was told is durable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Acked {
    rows: u64,
    /// Wrapping sum of per-key digests: scan order is not content.
    key_sum: u64,
    /// Rows acknowledged when the snapshot was pinned, and rows it saw
    /// when the ingest ended.
    at_pin: u64,
    snapshot_saw: u64,
}

/// Counts and walls of one lifecycle.
#[derive(Default)]
struct Lifecycle {
    /// Wall of each batch's `insert_rows` of 512 rows.
    insert_ms: Vec<f64>,
    /// Wall of the `commit` that makes it durable, fsync included.
    commit_ms: Vec<f64>,
    reopen_s: f64,
    /// Wall of each full scan after the reopen.
    scan_ms: Vec<f64>,
    scanned_rows: u64,
    /// Wall of each [`LOOKUP_CHUNK`] of `get`s.
    lookup_ms: Vec<f64>,
    lookups: u64,
    checkpoints: u64,
    user_bytes: u64,
    wal_bytes: u64,
    file_bytes: u64,
    replayed_pages: usize,
    cow_pages_second_half: f64,
    fsyncs: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .map(|e| e.metadata().map_or(0, |m| m.len()))
                .sum()
        })
        .unwrap_or(0)
}

/// Ingest `commits` batches of `galaxies` into a fresh database at `dir`,
/// close it, reopen it, scan it `scans` times and look up `lookups` keys.
/// Every commit, scan and lookup is an operation of `run`.
fn lifecycle(
    dir: &Path,
    galaxies: &[Galaxy],
    commits: usize,
    scans: usize,
    lookups: usize,
    rng: &mut Rng,
    run: &mut Run,
) -> DbResult<(Database, Acked, Lifecycle)> {
    let mut db = open(dir)?;
    db.create_clustered_table("Galaxy", maxbcg::schema::galaxy_schema(), &["objid"])?;
    db.commit()?;
    let fsyncs = CounterDelta::start("stardb.wal.fsyncs");
    let mut cow = CounterDelta::start("stardb.mvcc.cow_pages");
    let mut acked = Acked::default();
    let mut l = Lifecycle {
        insert_ms: Vec::with_capacity(commits),
        commit_ms: Vec::with_capacity(commits),
        ..Lifecycle::default()
    };
    let mut snapshot = None;
    for (k, batch) in galaxies.chunks(ROWS_PER_COMMIT).take(commits).enumerate() {
        if k == commits / 2 {
            snapshot = Some(db.snapshot());
            acked.at_pin = acked.rows;
            cow = CounterDelta::start("stardb.mvcc.cow_pages");
        }
        // The client's side of a batch, off the clock.
        let rows: Vec<Row> = batch.iter().map(galaxy_row).collect();
        l.user_bytes += rows.iter().map(|r| r.encoded_len() as u64).sum::<u64>();
        let key_sum = batch
            .iter()
            .fold(0u64, |s, g| s.wrapping_add(Digest::of([g.objid])));

        let inserted = {
            let _s = span("stardb.btree", "insert_rows", (k + 1) as u64);
            timed(|| db.insert_rows("Galaxy", rows))
        };
        let committed = {
            let _s = span("stardb.wal", "commit", (k + 1) as u64);
            timed(|| db.commit())
        };
        l.insert_ms.push(inserted.1 * 1e3);
        l.commit_ms.push(committed.1 * 1e3);
        let committed = inserted.0.and(committed.0);
        run.op(committed.is_ok(), || format!("commit {k}: {committed:?}"));
        if committed.is_ok() {
            acked.rows += batch.len() as u64;
            acked.key_sum = acked.key_sum.wrapping_add(key_sum);
        }
        l.checkpoints += u64::from(db.wal().is_some_and(|w| w.overlay_pages() == 0));
    }
    l.cow_pages_second_half = cow.get();
    l.fsyncs = fsyncs.get();
    l.wal_bytes = db.wal().map_or(0, |w| w.bytes_appended());
    if let Some(snap) = snapshot {
        acked.snapshot_saw = snap.row_count("Galaxy")?;
    }

    {
        let _s = span("stardb.wal", "close", 0);
        db.close()?;
    }
    let reopened = {
        let _s = span("stardb.wal", "open", 0);
        timed(|| open(dir))
    };
    let db = reopened.0?;
    l.reopen_s = reopened.1;
    l.replayed_pages = db.wal().map_or(0, |w| w.overlay_pages());
    l.file_bytes = dir_bytes(dir) + dir_bytes(&dir.join("wal"));

    l.scan_ms.reserve(scans);
    for k in 0..scans {
        let mut seen = 0u64;
        let (scanned, wall) = {
            let _s = span("stardb.btree", "scan_raw", (k + 1) as u64);
            timed(|| {
                db.scan_raw("Galaxy", |_| {
                    seen += 1;
                    true
                })
            })
        };
        l.scan_ms.push(wall * 1e3);
        l.scanned_rows += seen;
        run.op(scanned.is_ok() && seen == acked.rows, || {
            format!("a cold scan saw {seen} of {} rows: {scanned:?}", acked.rows)
        });
    }
    {
        let keys: Vec<i64> = (0..lookups)
            .map(|_| galaxies[rng.below(acked.rows as usize)].objid)
            .collect();
        l.lookup_ms.reserve(lookups / LOOKUP_CHUNK + 1);
        let mut found = 0;
        for (k, chunk) in keys.chunks(LOOKUP_CHUNK).enumerate() {
            let _s = span("stardb.btree", "get", (k + 1) as u64);
            let (hits, wall) = timed(|| {
                chunk
                    .iter()
                    .filter(|&&k| matches!(db.get("Galaxy", &[Value::BigInt(k)]), Ok(Some(_))))
                    .count()
            });
            found += hits;
            l.lookup_ms.push(wall * 1e3);
        }
        l.lookups = lookups as u64;
        run.ops(lookups as u64, (lookups - found) as u64, || {
            format!(
                "{} of {lookups} lookups of acknowledged keys found nothing",
                lookups - found
            )
        });
    }
    Ok((db, acked, l))
}

impl Workload for DurableIngest {
    type Ready = Ready;

    fn setup(cfg: &Config, run: &mut Run) -> Ready {
        let rows = cfg.count(COMMITS, 1.0, 8) * ROWS_PER_COMMIT;
        // A tenth more sky than rows: the Poisson count must not fall short.
        let inputs = generate(
            region_of(rows + rows / 10 + 2_000, 180.0, -2.0, 4.0),
            cfg.seed,
        );
        run.layer("skycore.kcorr_generate_s", inputs.kcorr_generate_s);
        run.layer("skysim.generate_s", inputs.generate_s);
        run.op(inputs.sky.galaxies.len() >= rows, || {
            format!(
                "the sky holds {} galaxies, the ingest needs {rows}",
                inputs.sky.galaxies.len()
            )
        });

        // Warm-up: a whole lifecycle at a quarter of the size, in a
        // directory of its own, so file cache, allocator and every code
        // path of the timed one are touched.
        let dir = scratch_dir(&cfg.workload, "warm");
        let mut rng = Rng::new(cfg.seed ^ 0x7761726d);
        let warm = lifecycle(
            &dir,
            &inputs.sky.galaxies,
            cfg.count(COMMITS, WARM_SHARE, 4),
            cfg.count(SCANS, WARM_SHARE, 1),
            cfg.count(LOOKUPS, WARM_SHARE, 100),
            &mut rng,
            run,
        );
        run.op(warm.is_ok(), || {
            format!("warm-up lifecycle failed: {:?}", warm.as_ref().err())
        });
        drop(warm);
        let _ = std::fs::remove_dir_all(&dir);
        Ready {
            inputs,
            last: None,
            dirs: Vec::new(),
        }
    }

    fn measure(cfg: &Config, ready: &mut Ready, share: f64, run: &mut Run) -> Measured {
        let traced = crate::trace::enabled();
        drop(ready.last.take());
        let dir = scratch_dir(&cfg.workload, if traced { "traced" } else { "timed" });
        ready.dirs.push(dir.clone());
        let mut rng = Rng::new(cfg.seed);
        let done = lifecycle(
            &dir,
            &ready.inputs.sky.galaxies,
            cfg.count(COMMITS, share, 8),
            cfg.count(SCANS, share, 2),
            cfg.count(LOOKUPS, share, 200),
            &mut rng,
            run,
        );
        run.op(done.is_ok(), || {
            format!("lifecycle failed: {:?}", done.as_ref().err())
        });
        let Ok((db, acked, l)) = done else {
            return Measured {
                op_ms: vec![f64::NAN],
                work_ms: vec![vec![f64::NAN]],
            };
        };
        ready.last = Some((db, acked));
        let seconds = |ms: &[f64]| ms.iter().sum::<f64>() / 1e3;
        let (insert_s, commit_s) = (seconds(&l.insert_ms), seconds(&l.commit_ms));
        if traced {
            let commits = l.commit_ms.len() as f64;
            run.layer(
                "ingest_rows_per_s",
                acked.rows as f64 / (insert_s + commit_s),
            );
            run.layer("commit_p50_ms", median(after_warmup(&l.commit_ms, 0.10)));
            run.layer(
                "cold_scan_rows_per_s",
                ratio(l.scanned_rows as f64, seconds(&l.scan_ms)),
            );
            run.layer(
                "lookup_per_s",
                ratio(l.lookups as f64, seconds(&l.lookup_ms)),
            );
            run.layer(
                "stardb.wal.bytes_per_user_byte",
                ratio(l.wal_bytes as f64, l.user_bytes as f64),
            );
            run.layer("stardb.wal.fsyncs_per_commit", l.fsyncs / commits);
            run.layer("stardb.wal.commit_share", commit_s / (insert_s + commit_s));
            run.layer("stardb.wal.checkpoints", l.checkpoints as f64);
            run.layer(
                "stardb.wal.commit_max_ms",
                l.commit_ms.iter().copied().fold(0.0, f64::max),
            );
            run.layer("stardb.wal.reopen_s", l.reopen_s);
            run.layer("stardb.wal.replayed_pages", l.replayed_pages as f64);
            run.layer(
                "stardb.mvcc.cow_pages_per_commit",
                l.cow_pages_second_half / (commits - (commits / 2.0).floor()),
            );
            run.layer(
                "stardb.store.file_bytes_per_user_byte",
                ratio(l.file_bytes as f64, l.user_bytes as f64),
            );
        }
        Measured {
            op_ms: l.scan_ms.clone(),
            // The first tenth of the batches grow the tree from nothing.
            work_ms: vec![
                after_warmup(&l.insert_ms, 0.10).to_vec(),
                l.scan_ms,
                l.lookup_ms,
            ],
        }
    }

    /// After the reopen: row count and key checksum equal what was
    /// acknowledged, and the half-way snapshot saw exactly its half.
    fn verify(cfg: &Config, ready: &mut Ready, run: &mut Run) {
        if let Some((db, acked)) = ready.last.take() {
            let (mut rows, mut key_sum) = (0u64, 0u64);
            let scanned = db.scan_raw("Galaxy", |payload| {
                rows += 1;
                key_sum = key_sum
                    .wrapping_add(Digest::of([
                        maxbcg::import::galaxy_from_payload(payload).objid
                    ]));
                true
            });
            let expect_rows = acked.rows + u64::from(cfg.break_check);
            run.op(scanned.is_ok() && rows == expect_rows && key_sum == acked.key_sum, || {
                format!("after reopen: {rows} rows (checksum {key_sum:x}), acknowledged {expect_rows} ({:x}): {scanned:?}", acked.key_sum)
            });
            run.op(
                acked.at_pin > 0 && acked.snapshot_saw == acked.at_pin,
                || {
                    format!(
                        "the snapshot pinned at {} rows saw {}",
                        acked.at_pin, acked.snapshot_saw
                    )
                },
            );
        } else {
            run.op(false, || "no database survived to be checked".to_owned());
        }
        for dir in ready.dirs.drain(..) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn sky(ready: &Ready) -> &Sky {
        &ready.inputs.sky
    }
}
