//! `casjobs_session` — one user's interactive reads, every request through
//! `casjobs::wire::handle_json`: extract a region into MyDB, index it,
//! build a side table, then rounds of five statement classes in fixed
//! rotation over a table that fits MyDB's 32 MiB pool. Read-only and
//! cache-resident, so plans, operators, decode and rendering do the work.

use super::{Measured, Workload};
use crate::classes::{is_bright, Answer, GalaxyClasses, Statement};
use crate::harness::{ratio, timed, Config, CounterDelta, Rng, Run};
use crate::inputs::{generate, region_of, Inputs};
use crate::session::{check_answers, run_rounds, schedule, Endpoint, SessionResult};
use crate::table::LOCAL_CLASSES;
use crate::trace::span;
use casjobs::wire::{handle_json, Envelope, Request, Response, WIRE_VERSION};
use casjobs::{CasJobs, UserId};
use maxbcg::MaxBcgConfig;
use skysim::Sky;
use stardb::{Database, DbConfig};
use std::sync::Arc;

pub struct CasjobsSession;

/// Rows of the MyDB table: ≈ 4 MiB with its index, an eighth of the
/// 32 MiB pool. Small on purpose: the sandbox's slow spells are memory
/// contention from its neighbours, and a working set near the cache sizes
/// feels them least (README, "A/A").
const ROWS: usize = 30_000;
/// Rounds per run at `table::RUN_SECONDS` (five statements each).
const ROUNDS: usize = 900;
/// Untimed warm-up rounds, as a share of the timed ones.
const WARM_SHARE: f64 = 0.15;

/// The service and the user driving it.
pub struct Wire {
    service: CasJobs,
    user: u64,
}

impl Wire {
    /// One request over the wire: JSON in, JSON out.
    fn request(&mut self, request: Request) -> String {
        let envelope = Envelope {
            version: WIRE_VERSION,
            user: self.user,
            request,
        };
        let json = serde_json::to_string(&envelope).expect("requests serialize");
        handle_json(&mut self.service, &json)
    }

    fn decode(response: &str) -> Result<Response, String> {
        serde_json::from_str::<Response>(response).map_err(|e| format!("undecodable response: {e}"))
    }

    /// A statement that must answer `Done` or `Affected`.
    fn statement(&mut self, sql: &str, run: &mut Run) {
        let out = Wire::decode(&self.request(Request::Query {
            statement: sql.to_owned(),
        }));
        run.op(
            matches!(out, Ok(Response::Done | Response::Affected { .. })),
            || format!("`{}`: {out:?}", &sql[..sql.len().min(60)]),
        );
    }
}

impl Endpoint for Wire {
    const LAYER: &'static str = "casjobs";
    type Reply = String;

    fn send(&mut self, sql: &str) -> String {
        self.request(Request::Query {
            statement: sql.to_owned(),
        })
    }

    fn is_rows(reply: &String) -> bool {
        reply.starts_with("{\"Rows\"")
    }

    fn bytes(reply: &String) -> usize {
        reply.len()
    }

    fn answer(reply: String) -> Result<Answer, String> {
        match Wire::decode(&reply)? {
            Response::Rows { rows, .. } => Ok(Answer::from_strings(&rows)),
            other => Err(format!("expected rows, got {other:?}")),
        }
    }
}

/// The same statements straight into a `Database`: the twin the traced
/// pass measures `casjobs.overhead_share` against.
struct Twin(Database);

impl Endpoint for Twin {
    const LAYER: &'static str = "stardb.sql";
    type Reply = stardb::DbResult<stardb::SqlOutput>;

    fn send(&mut self, sql: &str) -> Self::Reply {
        self.0.execute_sql(sql)
    }

    fn is_rows(reply: &Self::Reply) -> bool {
        matches!(reply, Ok(stardb::SqlOutput::Rows { .. }))
    }

    fn answer(reply: Self::Reply) -> Result<Answer, String> {
        let (_, rows) = reply
            .and_then(stardb::SqlOutput::rows)
            .map_err(|e| e.to_string())?;
        Ok(Answer::from_rows(&rows))
    }
}

pub struct Ready {
    inputs: Inputs,
    wire: Wire,
    classes: GalaxyClasses,
    /// Every timed round of the run, drawn during set-up.
    rounds: Vec<Statement>,
    /// How many of them earlier passes have consumed.
    next: usize,
}

const CREATE_INDEX: &str = "CREATE INDEX idx_galaxy_radec ON Galaxy (ra, dec)";
const CREATE_BRIGHT: &str = "CREATE TABLE Bright (objid BIGINT NOT NULL, PRIMARY KEY (objid))";

fn bright_inserts(classes: &GalaxyClasses) -> Vec<String> {
    let ids: Vec<i64> = classes
        .galaxies()
        .iter()
        .filter(|g| is_bright(g))
        .map(|g| g.objid)
        .collect();
    ids.chunks(500)
        .map(|chunk| {
            let values: Vec<String> = chunk.iter().map(|id| format!("({id})")).collect();
            format!("INSERT INTO Bright VALUES {}", values.join(", "))
        })
        .collect()
}

impl Workload for CasjobsSession {
    type Ready = Ready;

    fn setup(cfg: &Config, run: &mut Run) -> Ready {
        let region = region_of(cfg.size(ROWS, 4_000), 180.0, -1.0, 2.0);
        let inputs = generate(region, cfg.seed);
        run.layer("skycore.kcorr_generate_s", inputs.kcorr_generate_s);
        run.layer("skysim.generate_s", inputs.generate_s);
        let classes = GalaxyClasses::new(inputs.sky.galaxies.clone(), region);

        let mut service = CasJobs::new(Arc::new(inputs.sky.clone()), MaxBcgConfig::default());
        let user = service
            .register("perfsuite")
            .expect("register the session's user")
            .0;
        let mut wire = Wire { service, user };

        // The extract job: submitted, drained and polled over the wire.
        let extract = Request::SubmitExtract {
            window: (region.ra_min, region.ra_max, region.dec_min, region.dec_max),
            into: "Galaxy".into(),
        };
        let (status, extract_s) = timed(|| {
            let Ok(Response::Submitted { job }) = Wire::decode(&wire.request(extract)) else {
                return Err("the extract job was not accepted".to_owned());
            };
            wire.request(Request::RunPending);
            match Wire::decode(&wire.request(Request::Status { job }))? {
                Response::Status { state, message } if state == "finished" => {
                    Ok(message.unwrap_or_default())
                }
                other => Err(format!("the extract job did not finish: {other:?}")),
            }
        });
        let expected = format!(
            "{} rows into Galaxy",
            classes.galaxies().len() + usize::from(cfg.break_check)
        );
        run.op(status.as_deref() == Ok(expected.as_str()), || {
            format!("extract answered {status:?}, the sky says `{expected}`")
        });
        run.layer(
            "casjobs.extract_rows_per_s",
            classes.galaxies().len() as f64 / extract_s,
        );
        wire.statement(CREATE_INDEX, run);
        wire.statement(CREATE_BRIGHT, run);
        for insert in bright_inserts(&classes) {
            wire.statement(&insert, run);
        }

        // Every statement of the run, then the warm-up: a seventh of the
        // rounds, untimed, the first of them checked answer by answer.
        let mut rng = Rng::new(cfg.seed);
        let warm = cfg.count(ROUNDS, WARM_SHARE, 2);
        let warm_up = schedule(&LOCAL_CLASSES, warm, &mut rng, |c, r| classes.draw(c, r));
        let rounds = schedule(
            &LOCAL_CLASSES,
            cfg.count(ROUNDS, 1.0, 4),
            &mut rng,
            |c, r| classes.draw(c, r),
        );
        check_answers(
            &mut wire,
            &LOCAL_CLASSES,
            &warm_up[..LOCAL_CLASSES.len()],
            cfg.break_check,
            run,
        );
        run_rounds(&mut wire, &LOCAL_CLASSES, &warm_up, 0, run);
        Ready {
            inputs,
            wire,
            classes,
            rounds,
            next: 0,
        }
    }

    fn measure(cfg: &Config, ready: &mut Ready, share: f64, run: &mut Run) -> Measured {
        let n = cfg.count(ROUNDS, share, 2) * LOCAL_CLASSES.len();
        let slice = &ready.rounds[ready.next..(ready.next + n).min(ready.rounds.len())];
        ready.next += slice.len();
        let ops = ["scan", "filter", "topn", "hash_join"]
            .map(|op| CounterDelta::start(&format!("stardb.op.{op}.ns")));
        let materialized = CounterDelta::start("stardb.op.vector.materialized_rows");
        let result = run_rounds(&mut ready.wire, &LOCAL_CLASSES, slice, 1, run);
        if !crate::trace::enabled() {
            return Measured {
                work_ms: vec![result.round_ms.clone()],
                op_ms: result.round_ms,
            };
        }
        session_layers(&result, &ops.map(|c| c.get()), materialized.get(), run);
        let rows = ready.classes.galaxies().len() as f64;
        for class in ["scan", "agg"] {
            let reads = result.class(class).per_stmt("stardb.buffer.logical_reads");
            run.layer(
                &format!("stardb.buffer.logical_reads_per_row.{class}"),
                reads / rows,
            );
        }
        let returned: Vec<_> = ["fig4", "scan"].iter().map(|c| result.class(c)).collect();
        run.layer(
            "casjobs.response_bytes_per_row",
            ratio(
                returned.iter().map(|c| c.response_bytes as f64).sum(),
                returned.iter().map(|c| c.result_rows as f64).sum(),
            ),
        );
        planner_probes(&mut ready.wire, slice, run);
        twin_overhead(&ready.classes, slice, &result, run);
        Measured {
            work_ms: vec![result.round_ms.clone()],
            op_ms: result.round_ms,
        }
    }

    fn verify(_: &Config, _: &mut Ready, _: &mut Run) {}

    fn sky(ready: &Ready) -> &Sky {
        &ready.inputs.sky
    }
}

/// Per-class and per-operator metrics of a traced session pass.
fn session_layers(result: &SessionResult, op_ns: &[f64; 4], materialized: f64, run: &mut Run) {
    result.put_class_metrics(run);
    for c in &result.classes {
        run.layer(
            &format!("stardb.sql.rows_examined_per_result.{}", c.name),
            c.rows_examined_per_result(),
        );
    }
    let wall_ns = result.wall_s * 1e9;
    for (name, ns) in ["scan", "filter", "topn", "hash_join"].iter().zip(op_ns) {
        run.layer(&format!("stardb.sql.{name}_share"), ratio(*ns, wall_ns));
    }
    run.layer(
        "stardb.sql.materialized_rows_per_stmt",
        ratio(materialized, result.statements as f64),
    );
}

/// Parse alone, and parse + plan (`EXPLAIN`, no execution), per class.
fn planner_probes(wire: &mut Wire, round: &[Statement], run: &mut Run) {
    const REPS: usize = 200;
    for (class, stmt) in LOCAL_CLASSES.iter().zip(round) {
        let (parsed, parse_s) = {
            let _s = span("stardb.sql", "parse", 0);
            timed(|| {
                (0..REPS)
                    .filter(|_| stardb::sql::parse(&stmt.sql).is_ok())
                    .count()
            })
        };
        let explain = format!("EXPLAIN {}", stmt.sql);
        let user = UserId(wire.user);
        let (planned, explain_s) = {
            let _s = span("stardb.sql", "explain", 0);
            timed(|| {
                (0..REPS)
                    .filter(|_| wire.service.query(user, &explain).is_ok())
                    .count()
            })
        };
        run.op(parsed == REPS && planned == REPS, || {
            format!("{class}: parsed {parsed}, planned {planned} of {REPS}")
        });
        run.layer(
            &format!("stardb.sql.parse_us.{class}"),
            parse_s * 1e6 / REPS as f64,
        );
        run.layer(
            &format!("stardb.sql.explain_us.{class}"),
            explain_s * 1e6 / REPS as f64,
        );
    }
}

/// What CasJobs adds: one minus the wall of the same statements through
/// `execute_sql` on a twin database, loaded identically, over the
/// session's wall.
fn twin_overhead(
    classes: &GalaxyClasses,
    slice: &[Statement],
    session: &SessionResult,
    run: &mut Run,
) {
    let _s = span("stardb.sql", "twin", 0);
    let mut db = Database::new(DbConfig::in_memory());
    let loaded = (|| {
        db.create_clustered_table("Galaxy", maxbcg::schema::galaxy_schema(), &["objid"])?;
        for g in classes.galaxies() {
            db.insert("Galaxy", maxbcg::import::galaxy_row(g))?;
        }
        for sql in [CREATE_INDEX.to_owned(), CREATE_BRIGHT.to_owned()]
            .iter()
            .chain(&bright_inserts(classes))
        {
            db.execute_sql(sql)?;
        }
        Ok::<(), stardb::DbError>(())
    })();
    run.op(loaded.is_ok(), || format!("twin database: {loaded:?}"));
    let mut twin = Twin(db);
    let mut scratch = Run::new();
    let direct = run_rounds(&mut twin, &LOCAL_CLASSES, slice, 0, &mut scratch);
    run.op(scratch.failed == 0, || {
        "the twin database failed a statement".to_owned()
    });
    run.layer(
        "casjobs.overhead_share",
        1.0 - ratio(direct.wall_s, session.wall_s),
    );
}
