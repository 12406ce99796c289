//! What every workload shares: the run's configuration, the operation
//! tally, the metric ledger, a seeded generator for the harness's own
//! draws, and the small process-level probes (peak RSS, `obs` deltas).

use crate::table;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed work, seconds; iteration counts scale with it.
    pub seconds: f64,
    /// `--trace 1`: `obs` on, harness spans on, layer probes, per-layer output.
    pub trace: bool,
    /// Seconds-sized data and counts (`cargo test`).
    pub smoke: bool,
    /// Corrupt every expected answer: the run must then fail.
    pub break_check: bool,
}

impl Config {
    /// An iteration count calibrated at [`table::RUN_SECONDS`], scaled to
    /// this run's `--seconds` and to `share` of the window, never below
    /// `floor`. A function of the arguments only, never of the clock, so
    /// a seed's schedule and every count repeat exactly.
    pub fn count(&self, at_run_seconds: usize, share: f64, floor: usize) -> usize {
        let scale = self.seconds / f64::from(table::RUN_SECONDS) * share;
        let scale = if self.smoke { scale / 40.0 } else { scale };
        ((at_run_seconds as f64 * scale).round() as usize).max(floor)
    }

    /// A data size: the calibrated one, or `smoke` for the smoke test.
    pub fn size(&self, calibrated: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            calibrated
        }
    }
}

/// The catalogue seed of the one population a run pins (see
/// `workloads::maxbcg_batch`): also the default `--seed`.
pub const DEFAULT_SEED: u64 = 2005;

/// splitmix64: the harness's own generator, for windows, cut-offs and
/// lookup keys. The program never sees it, only what it draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// FNV-1a over integers: catalogue and key digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn i64(&mut self, v: i64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn of(values: impl IntoIterator<Item = i64>) -> u64 {
        let mut d = Digest::default();
        values.into_iter().for_each(|v| d.i64(v));
        d.0
    }
}

/// Time `f`; returns its result and the wall in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What one run produces: the operation tally and both metric ledgers.
#[derive(Default)]
pub struct Run {
    /// Operations attempted: statements, jobs, commits, scans, lookups and
    /// answer checks.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// The first few failures, for stderr.
    pub failures: Vec<String>,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<String, f64>,
}

impl Run {
    pub fn new() -> Run {
        let per_layer = table::per_layer()
            .into_iter()
            .map(|m| (m.name, 0.0))
            .collect();
        Run {
            per_layer,
            ..Run::default()
        }
    }

    /// Count one operation; `why` is only built for a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// Count `attempted` operations of one kind, `failed` of them failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// Record an end-to-end metric. Panics on a name the table lacks:
    /// that is a bug in this crate.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            table::END_TO_END.iter().any(|m| m.name == name),
            "{name} is not an end-to-end metric"
        );
        self.end_to_end.insert(name, value);
    }

    /// Record a per-layer metric (same rule).
    pub fn layer(&mut self, name: &str, value: f64) {
        let slot = self
            .per_layer
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    pub fn end_to_end(&self) -> &BTreeMap<&'static str, f64> {
        &self.end_to_end
    }

    pub fn per_layer(&self) -> &BTreeMap<String, f64> {
        &self.per_layer
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where a run writes: `perfsuite-out/<workload>/` beside the executable,
/// which is inside the checkout's build directory.
pub fn out_dir(workload: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the path of the running executable");
    let dir = exe
        .parent()
        .expect("an executable sits in a directory")
        .join("perfsuite-out")
        .join(workload);
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// A fresh scratch directory under [`out_dir`], unique to this process.
pub fn scratch_dir(workload: &str, tag: &str) -> PathBuf {
    let dir = out_dir(workload).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// How much an `obs` counter moved since `start`.
pub struct CounterDelta {
    counter: obs::Counter,
    at_start: u64,
}

impl CounterDelta {
    pub fn start(name: &str) -> CounterDelta {
        let counter = obs::counter(name);
        let at_start = counter.get();
        CounterDelta { counter, at_start }
    }

    pub fn get(&self) -> f64 {
        (self.counter.get() - self.at_start) as f64
    }
}

/// Names of the `obs` counters that are not zero. An untraced run must
/// leave this empty: it ran with telemetry off from its first line.
pub fn obs_counters_touched() -> Vec<String> {
    obs::MetricsSnapshot::capture()
        .counters
        .into_iter()
        .filter(|(_, v)| *v != 0)
        .map(|(k, _)| k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seconds: f64, smoke: bool) -> Config {
        Config {
            workload: "x".into(),
            seed: 1,
            seconds,
            trace: false,
            smoke,
            break_check: false,
        }
    }

    #[test]
    fn counts_scale_with_seconds_and_share_only() {
        assert_eq!(cfg(15.0, false).count(300, 1.0, 1), 300);
        assert_eq!(cfg(30.0, false).count(300, 1.0, 1), 600);
        assert_eq!(cfg(15.0, false).count(300, 0.1, 1), 30);
        assert_eq!(cfg(15.0, true).count(7, 1.0, 2), 2);
    }

    #[test]
    fn rng_repeats_for_a_seed_and_stays_in_range() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        for _ in 0..1000 {
            let x = a.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            assert!(a.below(10) < 10);
        }
    }

    #[test]
    fn run_tallies_failures_and_rejects_unknown_names() {
        let mut run = Run::new();
        run.op(true, || unreachable!());
        run.op(false, || "wrong".into());
        run.ops(3, 0, || unreachable!());
        run.ops(4, 2, || "two of four".into());
        assert_eq!((run.attempted, run.failed, run.failures.len()), (9, 3, 2));
        run.put("work_p10_s", 1.5);
        run.layer("job_s", 2.0);
        assert_eq!(run.per_layer().len(), crate::table::per_layer().len());
        assert!(std::panic::catch_unwind(move || run.layer("no.such.metric", 0.0)).is_err());
    }
}
