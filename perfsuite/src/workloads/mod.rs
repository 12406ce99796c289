//! The four workloads, and the one sequence every run of one follows:
//! set up (three times, median kept), measure, check, report.

pub mod casjobs_session;
pub mod durable_ingest;
pub mod maxbcg_batch;
pub mod xmatch_fabric;

use crate::harness::{
    obs_counters_touched, out_dir, peak_rss_mb, ratio, Config, CounterDelta, Run,
};
use crate::stats::{median, quantile};
use crate::{probes, trace};
use skysim::Sky;
use std::time::Instant;

/// The timed work of one pass.
pub struct Measured {
    /// Wall of each headline operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Wall of every timed operation of the pass, milliseconds: one vector
    /// per kind of operation.
    pub work_ms: Vec<Vec<f64>>,
}

/// The quantile the bounded timings are read at. The neighbours' memory
/// traffic only ever adds time, in bursts of a second or so: over ten
/// identical runs the median round of `casjobs_session` moved by 12 % and
/// its lower decile by 5 % (2 % but for one run): the lower decile repeats.
const QUIET: f64 = 0.10;

impl Measured {
    fn op_p10_ms(&self) -> f64 {
        quantile(&self.op_ms, QUIET)
    }

    /// All the timed work at the speed of the quiet box: each kind of
    /// operation's count times its lower-decile wall, seconds.
    fn work_p10_s(&self) -> f64 {
        let ms = |kind: &Vec<f64>| kind.len() as f64 * quantile(kind, QUIET);
        self.work_ms.iter().map(ms).sum::<f64>() / 1e3
    }
}

/// One workload.
pub trait Workload {
    /// Everything set-up leaves behind for the timed work.
    type Ready;

    /// From nothing to the first measured operation: inputs from
    /// `cfg.seed`, schema, load, indexes, fabric, warm-up, and the
    /// per-class answer checks.
    fn setup(cfg: &Config, run: &mut Run) -> Self::Ready;

    /// `share` of the timed work. While tracing is on it also records the
    /// workload's own per-layer metrics.
    fn measure(cfg: &Config, ready: &mut Self::Ready, share: f64, run: &mut Run) -> Measured;

    /// Answer checks that need the finished run (off the clock).
    fn verify(cfg: &Config, ready: &mut Self::Ready, run: &mut Run);

    /// The sky the inputs came from (the layer probes draw from it).
    fn sky(ready: &Self::Ready) -> &Sky;
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Shares of the timed work a traced run spends untraced (the reference
/// `obs.overhead_share` compares against) and traced.
const REFERENCE_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.65;

/// Run workload `W` as `cfg` asks; `process_start` is when `main` began.
pub fn run<W: Workload>(cfg: &Config, process_start: Instant) -> Run {
    // The library default is on; an untraced run keeps it off throughout.
    obs::set_enabled(false);
    let mut run = Run::new();
    let setups = if cfg.trace || cfg.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut ready = None;
    for rep in 0..setups {
        drop(ready.take());
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        ready = Some(W::setup(cfg, &mut run));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("at least one set-up");

    if cfg.trace {
        let reference = W::measure(cfg, &mut ready, REFERENCE_SHARE, &mut run);
        obs::set_enabled(true);
        trace::start();
        let pool = [
            "hits",
            "misses",
            "evictions",
            "physical_reads",
            "physical_writes",
        ]
        .map(|c| CounterDelta::start(&format!("stardb.buffer.{c}")));
        let traced = W::measure(cfg, &mut ready, TRACED_SHARE, &mut run);
        let [hits, misses, evictions, reads, writes] = pool.map(|c| c.get());
        run.layer("stardb.buffer.hit_ratio", ratio(hits, hits + misses));
        run.layer("stardb.buffer.evictions", evictions);
        run.layer("stardb.buffer.physical_reads", reads);
        run.layer("stardb.buffer.physical_writes", writes);
        run.layer(
            "obs.overhead_share",
            traced.op_p10_ms() / reference.op_p10_ms() - 1.0,
        );
        probes::run(cfg, W::sky(&ready), &mut run);
        let spans = trace::finish();
        obs::set_enabled(false);
        for (layer, self_s) in trace::self_time_by_layer(&spans) {
            eprintln!("self time {layer:<16} {self_s:.4} s");
        }
        let dir = out_dir(&cfg.workload);
        std::fs::write(dir.join("trace.json"), trace::to_json(&spans)).expect("write trace.json");
        std::fs::write(
            dir.join("layers.json"),
            crate::table::metrics_json(run.per_layer().iter().map(|(k, v)| (k.as_str(), *v))),
        )
        .expect("write layers.json");
    } else {
        let measured = W::measure(cfg, &mut ready, 1.0, &mut run);
        run.put("op_p10_ms", measured.op_p10_ms());
        run.put("work_p10_s", measured.work_p10_s());
    }
    W::verify(cfg, &mut ready, &mut run);
    drop(ready);

    run.put("setup_s", median(&setup_s));
    run.put("peak_rss_mb", peak_rss_mb());
    if !cfg.trace {
        let touched = obs_counters_touched();
        run.op(touched.is_empty(), || {
            format!("an untraced run moved obs counters: {touched:?}")
        });
    }
    run
}

#[cfg(test)]
mod tests {
    use super::Measured;

    #[test]
    fn bounded_timings_read_the_lower_decile_so_a_burst_does_not_move_them() {
        // A hundred 2 ms operations, a fifth of them caught in a burst of
        // the box, and four 50 ms operations of another kind.
        let mut ms = vec![2.0; 100];
        ms[40..60].fill(9.0);
        let measured = Measured {
            op_ms: ms.clone(),
            work_ms: vec![ms, vec![50.0; 4]],
        };
        assert_eq!(measured.op_p10_ms(), 2.0);
        assert!((measured.work_p10_s() - 0.4).abs() < 1e-12);
    }
}
