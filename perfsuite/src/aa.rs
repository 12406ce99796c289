//! `perfsuite aa`: two interleaved sets of runs of this same build, as the
//! driver makes them — each run a fresh process, each with another seed —
//! and, per end-to-end metric × workload, both medians, how much worse the
//! second is, each set's quartile spread, and PASS/FAIL against half the
//! metric's bound. Its output on the calibration box is `AA.md`.

use crate::stats::{iqr_share, median};
use crate::table::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

/// First seed of each set: the sets share no seed, like two driver passes.
const SET_SEEDS: [u64; 4] = [301, 401, 501, 601];

fn one_run(workload: &str, seed: u64, seconds: &str) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let v: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let metrics = v["metrics"].as_object().ok_or("no metrics object")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m["value"].as_f64()?)))
        .collect())
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn main(args: &[String]) -> i32 {
    let (mut sets, mut runs, mut seconds) = (2usize, 10usize, RUN_SECONDS.to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next();
        match (arg.as_str(), value) {
            ("--sets", Some(v)) => sets = v.parse().unwrap_or(sets).clamp(2, SET_SEEDS.len()),
            ("--runs", Some(v)) => runs = v.parse().unwrap_or(runs).max(2),
            ("--seconds", Some(v)) => seconds = v.clone(),
            _ => {
                eprintln!("usage: perfsuite aa [--sets 2] [--runs 10] [--seconds S]");
                return 2;
            }
        }
    }

    // samples[workload][metric][set] = one value per run.
    let mut samples: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    for i in 0..runs {
        // Interleaved: run i of every set before run i + 1 of any.
        for (set, first_seed) in SET_SEEDS.iter().enumerate().take(sets) {
            for w in &WORKLOADS {
                match one_run(w.name, first_seed + i as u64, &seconds) {
                    Ok(metrics) => {
                        eprintln!("set {} run {} {} {metrics:?}", set + 1, i + 1, w.name);
                        for (name, value) in metrics {
                            samples
                                .entry(w.name)
                                .or_default()
                                .entry(name)
                                .or_insert_with(|| vec![Vec::new(); sets])[set]
                                .push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("perfsuite aa: {e}");
                        return 1;
                    }
                }
            }
        }
    }

    println!(
        "{sets} interleaved sets of {runs} runs per workload, `--seconds {seconds}`, seeds {:?}+i.",
        &SET_SEEDS[..sets]
    );
    println!("`worse` is how much worse the later set's median is; PASS needs it under half the bound.\n");
    println!(
        "| workload | metric | bound | median 1 | IQR 1 | median 2 | IQR 2 | worse | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut failed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let Some(by_set) = samples.get(w.name).and_then(|s| s.get(m.name)) else {
                continue;
            };
            let (a, b) = (&by_set[0], &by_set[sets - 1]);
            let worse = worse_by(m.better, median(a), median(b));
            let pass = worse < m.bound / 2.0;
            failed |= !pass;
            println!(
                "| {} | {} | {} | {:.5} | {:.1} % | {:.5} | {:.1} % | {:+.1} % | {} |",
                w.name,
                m.name,
                m.bound,
                median(a),
                iqr_share(a) * 100.0,
                median(b),
                iqr_share(b) * 100.0,
                worse * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metrics_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 10.0, 9.0) < 0.0);
    }
}
