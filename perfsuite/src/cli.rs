//! The one command: `perfsuite --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload in this process and prints every
//! metric by name with its unit, the result object last. `list`,
//! `manifest` and `aa` are the subcommands beside it.

use crate::harness::{Config, Run, DEFAULT_SEED};
use crate::table::{self, metrics_json, per_layer, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::workloads::{self, casjobs_session, durable_ingest, maxbcg_batch, xmatch_fabric};
use std::time::Instant;

const USAGE: &str = "usage:
  perfsuite --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one run (also: run <name> [--trace])
  perfsuite list                                                      workloads and metrics
  perfsuite manifest                                                  BENCHMARK.json, from the same table
  perfsuite aa [--sets 2] [--runs 10] [--seconds S]                   two interleaved sets of this build
test hooks: --smoke (seconds-sized), --break-check (every expected answer wrong: must exit 1)";

/// Parse `args` into a run's configuration.
pub fn parse_run(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        break_check: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "run" | "--workload" => cfg.workload = value("--workload")?,
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // `--trace 1`, `--trace 0`, or bare `--trace`.
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => it.next().is_none(),
                    Some("1") => it.next().is_some(),
                    _ => true,
                }
            }
            "--smoke" => cfg.smoke = true,
            "--break-check" => cfg.break_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == cfg.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {names:?}, got `{}`",
            cfg.workload
        ));
    }
    if !(cfg.seconds >= 1.0 && cfg.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be between 1 and 600, got {}",
            cfg.seconds
        ));
    }
    Ok(cfg)
}

/// Run the workload `cfg` names.
pub fn run_workload(cfg: &Config, process_start: Instant) -> Run {
    match cfg.workload.as_str() {
        "maxbcg_batch" => workloads::run::<maxbcg_batch::MaxbcgBatch>(cfg, process_start),
        "casjobs_session" => workloads::run::<casjobs_session::CasjobsSession>(cfg, process_start),
        "xmatch_fabric" => workloads::run::<xmatch_fabric::XmatchFabric>(cfg, process_start),
        "durable_ingest" => workloads::run::<durable_ingest::DurableIngest>(cfg, process_start),
        other => unreachable!("parse_run admitted workload {other}"),
    }
}

/// The result object: the last line of a run's standard output.
pub fn result_json(cfg: &Config, run: &Run) -> String {
    let metrics = if cfg.trace {
        metrics_json(run.per_layer().iter().map(|(k, v)| (k.as_str(), *v)))
    } else {
        metrics_json(END_TO_END.iter().map(|m| {
            (
                m.name,
                run.end_to_end().get(m.name).copied().unwrap_or(f64::NAN),
            )
        }))
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed
    )
}

/// Entry point: returns the process's exit code.
pub fn main(args: &[String], process_start: Instant) -> i32 {
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            0
        }
        Some("list") => {
            print!("{}", table::listing());
            0
        }
        Some("manifest") => {
            print!("{}", table::benchmark_json());
            0
        }
        Some("aa") => crate::aa::main(&args[1..]),
        Some(_) => match parse_run(args) {
            Err(e) => {
                eprintln!("perfsuite: {e}\n{USAGE}");
                2
            }
            Ok(cfg) => one_run(&cfg, process_start),
        },
    }
}

fn one_run(cfg: &Config, process_start: Instant) -> i32 {
    let mut run = run_workload(cfg, process_start);
    // A metric that was never measured fails the run rather than reading 0.
    let missing: Vec<&str> = if cfg.trace {
        Vec::new()
    } else {
        END_TO_END
            .iter()
            .map(|m| m.name)
            .filter(|n| {
                !run.end_to_end()
                    .get(n)
                    .is_some_and(|v| v.is_finite() && *v > 0.0)
            })
            .collect()
    };
    run.op(missing.is_empty(), || {
        format!("end-to-end metrics without a value: {missing:?}")
    });

    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for m in &END_TO_END {
        if let Some(v) = run.end_to_end().get(m.name) {
            println!("{:<45} {v} {}", m.name, m.unit);
        }
    }
    if cfg.trace {
        for m in per_layer() {
            println!("{:<45} {} {}", m.name, run.per_layer()[&m.name], m.unit);
        }
    }
    println!(
        "operations attempted {} failed {}",
        run.attempted, run.failed
    );
    for why in &run.failures {
        eprintln!("FAILED: {why}");
    }
    println!("{}", result_json(cfg, &run));
    i32::from(run.failed != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_drivers_form_and_the_short_form() {
        let cfg = parse_run(&args(
            "--workload xmatch_fabric --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("xmatch_fabric", 7, 10.0, true)
        );
        let cfg = parse_run(&args("--workload xmatch_fabric --trace 0 --seed 9")).unwrap();
        assert_eq!((cfg.trace, cfg.seed), (false, 9));
        let cfg = parse_run(&args("run maxbcg_batch --trace")).unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.trace),
            ("maxbcg_batch", DEFAULT_SEED, true)
        );
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--workload maxbcg_batch --seconds 0")).is_err());
        assert!(parse_run(&args("--workload maxbcg_batch --frobnicate")).is_err());
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let cfg = parse_run(&args("--workload maxbcg_batch")).unwrap();
        let mut run = Run::new();
        run.op(true, || unreachable!());
        for m in &END_TO_END {
            run.put(m.name, 1.25);
        }
        let v: serde_json::Value = serde_json::from_str(&result_json(&cfg, &run)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["correct"], true);
        assert_eq!(v["metrics"].as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
        let traced = Config { trace: true, ..cfg };
        let v: serde_json::Value = serde_json::from_str(&result_json(&traced, &run)).unwrap();
        assert_eq!(v["metrics"].as_object().unwrap().len(), per_layer().len());
    }
}
