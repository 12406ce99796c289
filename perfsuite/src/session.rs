//! The closed loop both session workloads run: one client sends the
//! statement classes in fixed rotation, the next statement only when the
//! previous answer is back. Every statement and the answer the sky says
//! it has are drawn before the clock starts; sample vectors are sized in
//! advance; nothing is printed while timing.

use crate::classes::{Answer, Statement};
use crate::harness::{ratio, CounterDelta, Rng, Run};
use crate::stats::{median, tail};
use crate::trace;
use std::time::Instant;

/// Where a session's statements enter the system.
pub trait Endpoint {
    /// The layer the statements enter through, for spans.
    const LAYER: &'static str;
    /// What comes back, undecoded.
    type Reply;

    /// Send one statement and wait for the full response (timed).
    fn send(&mut self, sql: &str) -> Self::Reply;
    /// Whether the response is a result set rather than an error (cheap:
    /// runs between two timed statements).
    fn is_rows(reply: &Self::Reply) -> bool;
    /// Size of the response on the wire, where there is one.
    fn bytes(_: &Self::Reply) -> usize {
        0
    }
    /// Decode the response and summarize it (off the clock).
    fn answer(reply: Self::Reply) -> Result<Answer, String>;
}

/// `obs` counters summed per statement class in the traced pass.
const LEDGER: [&str; 5] = [
    "stardb.btree.seeks",
    "stardb.buffer.logical_reads",
    "stardb.plan.rows_pruned",
    "stardb.exec.rows_filtered",
    "stardb.dist.rows_shipped",
];

/// Samples and counts of one statement class.
#[derive(Debug, Default)]
pub struct ClassResult {
    pub name: &'static str,
    /// Request → full response, milliseconds, in schedule order.
    pub ms: Vec<f64>,
    /// Rows the statements returned (as the sky says).
    pub result_rows: u64,
    pub response_bytes: u64,
    /// Sums of [`LEDGER`] over the class's statements (traced pass).
    pub ledger: [f64; LEDGER.len()],
}

impl ClassResult {
    /// The class's sum of one of the [`LEDGER`] counters.
    fn sum(&self, counter: &str) -> f64 {
        let i = LEDGER
            .iter()
            .position(|n| *n == counter)
            .expect("a ledger counter");
        self.ledger[i]
    }

    pub fn per_stmt(&self, counter: &str) -> f64 {
        ratio(self.sum(counter), self.ms.len() as f64)
    }

    /// Rows the engine examined per row it returned: result rows plus
    /// those the plan pruned and the executor filtered away.
    pub fn rows_examined_per_result(&self) -> f64 {
        let examined = self.result_rows as f64
            + self.sum("stardb.plan.rows_pruned")
            + self.sum("stardb.exec.rows_filtered");
        ratio(examined, self.result_rows as f64)
    }
}

/// One pass over a schedule.
#[derive(Debug, Default)]
pub struct SessionResult {
    /// Wall of each round (one statement of every class), milliseconds.
    pub round_ms: Vec<f64>,
    pub classes: Vec<ClassResult>,
    /// Wall of the whole loop, seconds.
    pub wall_s: f64,
    pub statements: u64,
}

impl SessionResult {
    pub fn class(&self, name: &str) -> &ClassResult {
        self.classes
            .iter()
            .find(|c| c.name == name)
            .expect("a class of this session")
    }

    /// Fold another pass of the same classes into this one.
    pub fn absorb(&mut self, other: SessionResult) {
        if self.classes.is_empty() {
            *self = other;
            return;
        }
        self.round_ms.extend(other.round_ms);
        self.wall_s += other.wall_s;
        self.statements += other.statements;
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes) {
            mine.ms.extend(theirs.ms);
            mine.result_rows += theirs.result_rows;
            mine.response_bytes += theirs.response_bytes;
            for (a, b) in mine.ledger.iter_mut().zip(theirs.ledger) {
                *a += b;
            }
        }
    }

    /// `<class>_p50_ms`, the diagnostic tail and sample count, and
    /// `session_qps`.
    pub fn put_class_metrics(&self, run: &mut Run) {
        for c in &self.classes {
            run.layer(&format!("{}_p50_ms", c.name), median(&c.ms));
            run.layer(&format!("stardb.sql.{}_p95_ms", c.name), tail(&c.ms));
            run.layer(&format!("stardb.sql.{}_samples", c.name), c.ms.len() as f64);
            run.layer(
                &format!("stardb.btree.seeks_per_stmt.{}", c.name),
                c.per_stmt("stardb.btree.seeks"),
            );
        }
        run.layer("session_qps", ratio(self.statements as f64, self.wall_s));
    }
}

/// Draw `rounds` rounds of `classes` from `rng`.
pub fn schedule(
    classes: &[&'static str],
    rounds: usize,
    rng: &mut Rng,
    mut draw: impl FnMut(&str, &mut Rng) -> Statement,
) -> Vec<Statement> {
    let mut out = Vec::with_capacity(rounds * classes.len());
    for _ in 0..rounds {
        out.extend(classes.iter().map(|c| draw(c, rng)));
    }
    out
}

/// Send every statement of `schedule` (whole rounds of `classes`), timing
/// each. A response that is not a result set is a failed operation.
pub fn run_rounds<E: Endpoint>(
    endpoint: &mut E,
    classes: &[&'static str],
    schedule: &[Statement],
    first_op_id: u64,
    run: &mut Run,
) -> SessionResult {
    let traced = trace::enabled();
    let rounds = schedule.len() / classes.len();
    let mut out = SessionResult {
        round_ms: Vec::with_capacity(rounds),
        classes: classes
            .iter()
            .map(|name| ClassResult {
                name,
                ms: Vec::with_capacity(rounds),
                ..ClassResult::default()
            })
            .collect(),
        ..SessionResult::default()
    };
    let mut failed = 0u64;
    let loop_start = Instant::now();
    for (r, round) in schedule.chunks_exact(classes.len()).enumerate() {
        let round_start = Instant::now();
        for (k, stmt) in round.iter().enumerate() {
            let deltas = traced.then(|| LEDGER.map(CounterDelta::start));
            let span = trace::span(
                E::LAYER,
                classes[k],
                first_op_id + (r * classes.len() + k) as u64,
            );
            let t0 = Instant::now();
            let reply = endpoint.send(&stmt.sql);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(span);
            let class = &mut out.classes[k];
            class.ms.push(ms);
            class.result_rows += stmt.expect.rows;
            class.response_bytes += E::bytes(&reply) as u64;
            failed += u64::from(!E::is_rows(&reply));
            if let Some(deltas) = deltas {
                for (sum, d) in class.ledger.iter_mut().zip(&deltas) {
                    *sum += d.get();
                }
            }
        }
        out.round_ms.push(round_start.elapsed().as_secs_f64() * 1e3);
    }
    out.wall_s = loop_start.elapsed().as_secs_f64();
    out.statements = (rounds * classes.len()) as u64;
    run.ops(out.statements, failed, || {
        format!(
            "{failed} {} statements did not return a result set",
            E::LAYER
        )
    });
    out
}

/// Send each statement once and hold its full answer against the sky's:
/// the per-class answer check of a run.
pub fn check_answers<E: Endpoint>(
    endpoint: &mut E,
    classes: &[&'static str],
    round: &[Statement],
    break_check: bool,
    run: &mut Run,
) {
    for (class, stmt) in classes.iter().zip(round) {
        let expect = if break_check {
            stmt.expect.clone().broken()
        } else {
            stmt.expect.clone()
        };
        let got = E::answer(endpoint.send(&stmt.sql));
        run.op(matches!(&got, Ok(a) if expect.matches(a)), || match got {
            Ok(a) => format!(
                "{class}: `{}` answered {a:?}, the sky says {expect:?}",
                stmt.sql
            ),
            Err(e) => format!("{class}: `{}` failed: {e}", stmt.sql),
        });
    }
}
