//! `xmatch_fabric` — the sequel paper's query: two surveys of one stripe,
//! zoned and loaded, co-sharded over a 4-node fabric; then groups of one
//! fabric XMatch and a batch of statement rounds (`fig4` pruned to a
//! shard, `agg` partial → final, `topn` per-shard limit + k-way merge),
//! all through `DistCluster::execute_sql`. `run_routed` executes shards
//! serially, so this workload is single-threaded like the others.

use super::{Measured, Workload};
use crate::classes::{Answer, Statement, SurveyClasses};
use crate::harness::{ratio, timed, Config, CounterDelta, Rng, Run};
use crate::inputs::{generate, region_of, Inputs};
use crate::session::{check_answers, run_rounds, schedule, Endpoint, SessionResult};
use crate::stats::median;
use crate::table::FABRIC_CLASSES;
use crate::trace::span;
use distfab::{DistCluster, DistConfig};
use maxbcg::xmatch::{
    brute_force_xmatch, create_survey_table, load_survey, run_xmatch, XmatchObj, XmatchSpec,
};
use skycore::ZoneScheme;
use skysim::{Sky, SurveyConfig};
use stardb::{Database, DbConfig, DbResult, PlanOptions, SqlOutput};
use std::collections::HashSet;

pub struct XmatchFabric;

/// Galaxies of the truth survey; the re-observation holds ≈ 90 % of them.
const ROWS: usize = 80_000;
const NODES: usize = 4;
/// Groups per run at `table::RUN_SECONDS`: one XMatch and
/// `ROUNDS_PER_GROUP` rounds of the three classes each.
const GROUPS: usize = 28;
const ROUNDS_PER_GROUP: usize = 20;
/// Untimed warm-up rounds, as a share of the timed ones.
const WARM_SHARE: f64 = 0.15;
const ZONE_HEIGHT_DEG: f64 = 30.0 / 3600.0;
const RADIUS_DEG: f64 = 1.0 / 3600.0;
/// A pool both surveys fit, so the local reference join never evicts.
const POOL_FRAMES: usize = 16_384;

/// The fabric as a session endpoint.
struct Fabric<'a>(&'a DistCluster);

impl Endpoint for Fabric<'_> {
    const LAYER: &'static str = "distfab";
    type Reply = DbResult<SqlOutput>;

    fn send(&mut self, sql: &str) -> Self::Reply {
        self.0.execute_sql(sql)
    }

    fn is_rows(reply: &Self::Reply) -> bool {
        matches!(reply, Ok(SqlOutput::Rows { .. }))
    }

    fn answer(reply: Self::Reply) -> Result<Answer, String> {
        let (_, rows) = reply.and_then(SqlOutput::rows).map_err(|e| e.to_string())?;
        Ok(Answer::from_rows(&rows))
    }
}

pub struct Ready {
    inputs: Inputs,
    truth: Vec<XmatchObj>,
    second: Vec<XmatchObj>,
    spec: XmatchSpec,
    /// The unsharded engine both surveys were loaded into.
    db: Database,
    fabric: DistCluster,
    xmatch_sql: String,
    /// Pairs of the warm-up fabric XMatch: every timed one must equal it.
    pairs: Vec<(i64, i64)>,
    rounds: Vec<Statement>,
    next: usize,
}

fn pairs_of(out: DbResult<SqlOutput>) -> Result<Vec<(i64, i64)>, String> {
    let (_, rows) = out.and_then(SqlOutput::rows).map_err(|e| e.to_string())?;
    rows.iter()
        .map(|r| Ok((r.i64(0)?, r.i64(1)?)))
        .collect::<DbResult<_>>()
        .map_err(|e| e.to_string())
}

impl Workload for XmatchFabric {
    type Ready = Ready;

    fn setup(cfg: &Config, run: &mut Run) -> Ready {
        let region = region_of(cfg.size(ROWS, 6_000), 150.0, 1.25, 2.5);
        let inputs = generate(region, cfg.seed);
        run.layer("skycore.kcorr_generate_s", inputs.kcorr_generate_s);
        let (second, survey_s) = timed(|| {
            inputs
                .sky
                .second_survey(&SurveyConfig::paper(), cfg.seed ^ 0x5332)
        });
        run.layer("skysim.generate_s", inputs.generate_s + survey_s);
        let truth: Vec<XmatchObj> = inputs
            .sky
            .galaxies
            .iter()
            .map(|g| (g.objid, g.ra, g.dec))
            .collect();
        let second: Vec<XmatchObj> = second.iter().map(|o| (o.objid, o.ra, o.dec)).collect();

        let scheme = ZoneScheme::with_height(ZONE_HEIGHT_DEG);
        let max_dec = truth
            .iter()
            .chain(&second)
            .map(|o| o.2.abs())
            .fold(0.0f64, f64::max);
        let spec = XmatchSpec::new(RADIUS_DEG, scheme, max_dec);
        let mut db = Database::new(DbConfig::tiny(POOL_FRAMES));
        let loaded = (|| {
            create_survey_table(&mut db, "Survey1")?;
            create_survey_table(&mut db, "Survey2")?;
            let a = load_survey(&mut db, "Survey1", &truth, &scheme, 0.0)?;
            let b = load_survey(&mut db, "Survey2", &second, &scheme, spec.margin_deg())?;
            Ok::<u64, stardb::DbError>(a.0 + b.0)
        })();
        let expected = (truth.len() + second.len()) as u64 + u64::from(cfg.break_check);
        run.op(loaded.as_ref().ok() == Some(&expected), || {
            format!("loaded {loaded:?} rows, generated {expected}")
        });

        let mut dist = DistConfig::new(
            NODES,
            "Survey1",
            "dec",
            region.dec_min - 0.01,
            region.dec_max + 0.01,
        )
        .with_co_shard("Survey2", "zoneid", spec.dzone());
        dist.scheme = scheme;
        let (fabric, build_s) = timed(|| DistCluster::build(&db, dist));
        run.layer("distfab.build_s", build_s);
        let fabric = fabric.expect("build the fabric");
        let xmatch_sql = spec.sql("Survey1", "Survey2", None);

        // Warm-up: one fabric XMatch (builds every shard's ZoneMap) and a
        // seventh of the rounds, the first of them checked answer by answer.
        let pairs = pairs_of(fabric.execute_sql(&xmatch_sql));
        run.op(pairs.is_ok(), || {
            format!("warm-up XMatch failed: {:?}", pairs.as_ref().err())
        });
        let classes = SurveyClasses::new(&truth, region);
        let mut rng = Rng::new(cfg.seed);
        let warm = cfg.count(GROUPS * ROUNDS_PER_GROUP, WARM_SHARE, 2);
        let warm_up = schedule(&FABRIC_CLASSES, warm, &mut rng, |c, r| classes.draw(c, r));
        let groups = cfg.count(GROUPS, 1.0, 2);
        let rounds = schedule(
            &FABRIC_CLASSES,
            groups * rounds_per_group(cfg),
            &mut rng,
            |c, r| classes.draw(c, r),
        );
        let mut endpoint = Fabric(&fabric);
        check_answers(
            &mut endpoint,
            &FABRIC_CLASSES,
            &warm_up[..FABRIC_CLASSES.len()],
            cfg.break_check,
            run,
        );
        run_rounds(&mut endpoint, &FABRIC_CLASSES, &warm_up, 0, run);
        Ready {
            inputs,
            truth,
            second,
            spec,
            db,
            fabric,
            xmatch_sql,
            pairs: pairs.unwrap_or_default(),
            rounds,
            next: 0,
        }
    }

    fn measure(cfg: &Config, ready: &mut Ready, share: f64, run: &mut Run) -> Measured {
        let traced = crate::trace::enabled();
        let groups = cfg.count(GROUPS, share, 1);
        let per_group = rounds_per_group(cfg) * FABRIC_CLASSES.len();
        let shard_ns = CounterDelta::start("gridsim.scheduler.virtual_compute_ns");
        let mut xmatch_ms = Vec::with_capacity(groups);
        let mut makespan_s = 0.0;
        let mut session = SessionResult::default();
        let mut shard_ns_in_xmatch = 0.0;
        for g in 0..groups {
            let before = shard_ns.get();
            let (out, wall) = {
                let _s = span("distfab", "xmatch", (g + 1) as u64);
                timed(|| ready.fabric.execute_sql(&ready.xmatch_sql))
            };
            shard_ns_in_xmatch += shard_ns.get() - before;
            xmatch_ms.push(wall * 1e3);
            makespan_s += ready
                .fabric
                .last_dist()
                .map_or(0.0, |p| p.virtual_makespan_s);
            // Off the clock: the pairs against the warm-up's.
            let same = pairs_of(out).map(|p| p == ready.pairs);
            run.op(same == Ok(true), || format!("fabric XMatch {g}: {same:?}"));

            let slice = &ready.rounds[ready.next..(ready.next + per_group).min(ready.rounds.len())];
            ready.next += slice.len();
            let first_op = 1_000 * (g + 1) as u64;
            session.absorb(run_rounds(
                &mut Fabric(&ready.fabric),
                &FABRIC_CLASSES,
                slice,
                first_op,
                run,
            ));
        }
        let xmatch_s: f64 = xmatch_ms.iter().sum::<f64>() / 1e3;
        if traced {
            run.layer("xmatch_s", median(&xmatch_ms) / 1e3);
            session.put_class_metrics(run);
            let rows = ready.truth.len() as f64;
            run.layer(
                "stardb.buffer.logical_reads_per_row.agg",
                session.class("agg").per_stmt("stardb.buffer.logical_reads") / rows,
            );
            for c in &session.classes {
                run.layer(
                    &format!("distfab.rows_shipped_per_stmt.{}", c.name),
                    c.per_stmt("stardb.dist.rows_shipped"),
                );
            }
            run.layer(
                "distfab.gather_share",
                1.0 - ratio(shard_ns_in_xmatch / 1e9, xmatch_s),
            );
            run.layer(
                "distfab.virtual_parallel_efficiency",
                ratio(shard_ns_in_xmatch / 1e9, NODES as f64 * makespan_s),
            );
            fabric_probes(ready, run);
        }
        Measured {
            work_ms: vec![xmatch_ms.clone(), session.round_ms],
            op_ms: xmatch_ms,
        }
    }

    /// Fabric pairs ≡ local `run_xmatch` pairs, and ≡ brute force on a
    /// 4000 × 4000 slice.
    fn verify(cfg: &Config, ready: &mut Ready, run: &mut Run) {
        let local = run_xmatch(
            &mut ready.db,
            &ready.spec,
            "Survey1",
            "Survey2",
            1,
            &PlanOptions::default(),
        );
        run.op(
            local.as_ref().is_ok_and(|p| *p == ready.pairs) && !cfg.break_check,
            || {
                format!(
                    "fabric found {} pairs, local run_xmatch {:?}",
                    ready.pairs.len(),
                    local.as_ref().map(Vec::len)
                )
            },
        );
        let m = 4000.min(ready.truth.len()).min(ready.second.len());
        let a_ids: HashSet<i64> = ready.truth[..m].iter().map(|o| o.0).collect();
        let b_ids: HashSet<i64> = ready.second[..m].iter().map(|o| o.0).collect();
        let slice: Vec<(i64, i64)> = ready
            .pairs
            .iter()
            .copied()
            .filter(|(a, b)| a_ids.contains(a) && b_ids.contains(b))
            .collect();
        let brute = brute_force_xmatch(&ready.truth[..m], &ready.second[..m], &ready.spec);
        run.op(slice == brute && !brute.is_empty(), || {
            format!(
                "the zone join found {} pairs on the slice, brute force {}",
                slice.len(),
                brute.len()
            )
        });
    }

    fn sky(ready: &Ready) -> &Sky {
        &ready.inputs.sky
    }
}

fn rounds_per_group(cfg: &Config) -> usize {
    cfg.size(ROUNDS_PER_GROUP, 2)
}

/// One traced statement of each kind for the profile-derived metrics, the
/// planning floor under each class, and the join without the fabric.
fn fabric_probes(ready: &mut Ready, run: &mut Run) {
    let fabric = &ready.fabric;
    let counters = [
        "stardb.op.zonejoin.pairs_examined",
        "stardb.op.zonejoin.pairs_matched",
        "stardb.op.zonejoin.halo_rows",
        "gridsim.scheduler.attempts",
        "stardb.dist.subqueries",
    ]
    .map(CounterDelta::start);
    let out = {
        let _s = span("distfab", "xmatch", 0);
        fabric.execute_sql(&ready.xmatch_sql)
    };
    let profile = fabric.last_dist().unwrap_or_default();
    run.op(out.is_ok() && profile.retries == 0, || {
        format!(
            "probe XMatch: {} retries, {:?}",
            profile.retries,
            out.as_ref().err()
        )
    });
    let [examined, matched, halo, attempts, subqueries] = counters.map(|c| c.get());
    run.layer("stardb.zonejoin.pairs_per_match", ratio(examined, matched));
    run.layer("stardb.zonejoin.halo_rows", halo);
    run.layer("gridsim.attempts_per_job", ratio(attempts, subqueries));
    run.layer(
        "distfab.rows_shipped_per_stmt.xmatch",
        profile.rows_shipped as f64,
    );
    run.layer(
        "distfab.bytes_per_row_shipped",
        ratio(profile.bytes_shipped as f64, profile.rows_shipped as f64),
    );

    const REPS: usize = 100;
    let first_round = &ready.rounds[..FABRIC_CLASSES.len()];
    for (class, stmt) in FABRIC_CLASSES.iter().zip(first_round) {
        let _s = span("distfab", "explain", 0);
        let (planned, wall) = timed(|| {
            (0..REPS)
                .filter(|_| fabric.explain_lines(&stmt.sql, false).is_ok())
                .count()
        });
        run.op(planned == REPS, || {
            format!("{class}: the fabric planned {planned} of {REPS}")
        });
        run.layer(
            &format!("distfab.explain_us.{class}"),
            wall * 1e6 / REPS as f64,
        );
        if *class == "fig4" {
            let sent = fabric.execute_sql(&stmt.sql).is_ok();
            let p = fabric.last_dist().unwrap_or_default();
            run.op(sent && p.pruned > 0, || {
                format!("fig4 pruned {} of {} shards", p.pruned, p.shards_total)
            });
            run.layer(
                "distfab.shards_pruned_ratio.fig4",
                ratio(p.pruned as f64, p.shards_total as f64),
            );
        }
    }

    let _s = span("stardb.zonejoin", "run_xmatch", 0);
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                run_xmatch(
                    &mut ready.db,
                    &ready.spec,
                    "Survey1",
                    "Survey2",
                    1,
                    &PlanOptions::default(),
                )
            })
            .1
        })
        .collect();
    run.layer("stardb.zonejoin.local_xmatch_s", median(&walls));
}
