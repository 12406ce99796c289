//! Shared harness for the experiment binaries: scenario construction,
//! scaling knobs, table formatting, and JSON report output.
//!
//! Every table/figure binary accepts:
//!
//! * `--scale <f>` — sky density relative to the paper's (default 0.05;
//!   1.0 reproduces the full ~14,000 galaxies/deg² and takes hours, just
//!   like the paper's runs did);
//! * `--seed <n>` — sky seed (default 2005);
//! * `--out <dir>` — where JSON reports land (default `reports/`);
//! * `--workers <n>` — worker threads for the CPU-bound pipeline stages
//!   (default 1 = sequential; catalogs are byte-identical either way).

#![warn(missing_docs)]

use serde::Serialize;
use skycore::kcorr::KcorrTable;
use skycore::SkyRegion;
use skysim::{Sky, SkyConfig};
use std::path::PathBuf;

/// Common command-line options.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Density scale relative to the paper's survey.
    pub scale: f64,
    /// Sky seed.
    pub seed: u64,
    /// Report directory.
    pub out: PathBuf,
    /// Worker threads for the CPU-bound pipeline stages.
    pub workers: usize,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts { scale: 0.05, seed: 2005, out: PathBuf::from("reports"), workers: 1 }
    }
}

const USAGE: &str =
    "usage: [--scale <float>] [--seed <int>] [--out <dir>] [--workers <int, 1 or more>]";

impl BenchOpts {
    /// Parse from `std::env::args`. `--help` prints the usage line and
    /// exits 0; an unknown or malformed flag prints it to stderr and
    /// exits 2.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Self::parse_from(args).unwrap_or_else(|bad| {
            eprintln!("{bad}; {USAGE}");
            std::process::exit(2);
        })
    }

    fn parse_from(args: Vec<String>) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
        }
        let mut opts = BenchOpts::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => opts.scale = value(&flag, args.next())?,
                "--seed" => opts.seed = value(&flag, args.next())?,
                "--out" => opts.out = value(&flag, args.next())?,
                "--workers" => {
                    opts.workers = value::<std::num::NonZeroUsize>(&flag, args.next())?.get()
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(opts)
    }

    /// Generate a sky over `region` at the chosen scale.
    pub fn sky(&self, region: SkyRegion, kcorr: &KcorrTable) -> Sky {
        Sky::generate(region, &SkyConfig::scaled(self.scale), kcorr, self.seed)
    }

    /// Write a JSON report next to the experiment name and return its path.
    pub fn write_report<T: Serialize>(&self, name: &str, report: &T) -> PathBuf {
        std::fs::create_dir_all(&self.out).expect("create report dir");
        let path = self.out.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(report).expect("serialize report");
        std::fs::write(&path, json).expect("write report");
        path
    }

    /// Capture the global `obs` registry into a unified machine-readable
    /// run report — provenance (git revision, seed), config (scale),
    /// every counter/gauge/histogram and finished span, plus the
    /// experiment-specific `payload` — and write it as `BENCH_{name}.json`
    /// in the current directory (the workspace root under `cargo run`).
    /// Returns the path. Every experiment binary calls this once, after
    /// its measured phases, so all BENCH files share one schema.
    pub fn emit_report<T: Serialize>(&self, name: &str, payload: &T) -> PathBuf {
        let report = obs::RunReport::capture(name)
            .with_seed(self.seed)
            .with_config("scale", self.scale)
            .with_payload(payload);
        let path = report.write(std::path::Path::new(".")).expect("write BENCH report");
        println!("machine report: {}", path.display());
        path
    }
}

/// The scaled-down analogue of the paper's test case: the target region,
/// its 0.5 deg candidate buffer (B), and the import region (P). To keep
/// bench wall times sane the default geometry is a 3 x 2 deg² target in a
/// 5 x 4 deg² import region — the same nesting as the paper's 66-in-104,
/// at 1/11 the area; `--scale` controls density independently.
#[derive(Debug, Clone, Copy)]
pub struct PaperCase {
    /// The target area T.
    pub target: SkyRegion,
    /// The candidate window B = T + 0.5 deg.
    pub candidates: SkyRegion,
    /// The import region P = T + 1.0 deg.
    pub import: SkyRegion,
}

impl PaperCase {
    /// The reduced default case.
    pub fn reduced() -> Self {
        let target = SkyRegion::new(180.0, 183.0, -1.0, 1.0);
        PaperCase { target, candidates: target.expanded(0.5), import: target.expanded(1.0) }
    }

    /// The paper's full 66 deg² target inside 104 deg².
    pub fn full() -> Self {
        let target = SkyRegion::paper_target_66();
        PaperCase { target, candidates: target.expanded(0.5), import: target.expanded(1.0) }
    }
}

/// Simple fixed-width table printer.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    /// Render with right-aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with sensible precision.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// The database configuration experiment binaries run with: a 2 GB buffer
/// pool (the paper's SQL nodes had 2 GB of RAM) over the modeled spinning
/// disk, so Table 1's elapsed/cpu/I/O decomposition matches the paper's
/// conditions instead of a deliberately starved test pool.
pub fn server_db() -> stardb::DbConfig {
    stardb::DbConfig { buffer_frames: 262_144, disk: stardb::DiskProfile::spinning_disk() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts() {
        let o = BenchOpts::default();
        assert_eq!(o.scale, 0.05);
        assert_eq!(o.out, PathBuf::from("reports"));
    }

    #[test]
    fn parse_reports_bad_flags_instead_of_panicking() {
        let parse = |args: &[&str]| {
            BenchOpts::parse_from(args.iter().map(|a| a.to_string()).collect())
        };
        let o = parse(&["--scale", "0.02", "--seed", "7", "--out", "x", "--workers", "2"]).unwrap();
        assert_eq!((o.scale, o.seed, o.out, o.workers), (0.02, 7, PathBuf::from("x"), 2));
        for bad in [&["--bogus"][..], &["--scale"], &["--scale", "big"], &["--workers", "0"]] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    /// `scripts/run_experiments.sh` is the one list of artifact binaries
    /// (CI runs it and names none itself): it must name exactly the
    /// sources under `src/bin`, bar the interactive `skyql`.
    #[test]
    fn run_experiments_script_lists_exactly_the_artifact_binaries() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut bins: Vec<String> = std::fs::read_dir(root.join("src/bin"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_str().unwrap().to_owned())
            .filter(|b| b != "skyql")
            .collect();
        bins.sort();
        let script =
            std::fs::read_to_string(root.join("../../scripts/run_experiments.sh")).unwrap();
        let list = script
            .split("for bin in")
            .nth(1)
            .and_then(|s| s.split("; do").next())
            .expect("script loops `for bin in … ; do`");
        let mut listed: Vec<&str> = list.split_whitespace().filter(|w| *w != "\\").collect();
        listed.sort();
        assert_eq!(listed, bins);
    }

    #[test]
    fn paper_case_nesting() {
        for case in [PaperCase::reduced(), PaperCase::full()] {
            assert_eq!(case.target.expanded(0.5), case.candidates);
            assert_eq!(case.target.expanded(1.0), case.import);
        }
        assert!((PaperCase::full().target.area_deg2() - 66.0).abs() < 1e-9);
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["task", "elapsed"]);
        t.row(&["spZone".into(), "563.7".into()]);
        t.row(&["fBCGCandidate".into(), "15758.2".into()]);
        let s = t.render();
        assert!(s.contains("spZone"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn emit_report_captures_registry_and_provenance() {
        obs::counter("bench.test.marker").incr();
        let opts = BenchOpts::default();
        let path = opts.emit_report("benchunit", &serde_json::json!({"rows": 1}));
        assert_eq!(path.file_name().unwrap(), "BENCH_benchunit.json");
        let body = std::fs::read_to_string(&path).unwrap();
        let report = obs::RunReport::from_json(&body).unwrap();
        assert_eq!(report.seed, Some(2005));
        assert!(report.counters.contains_key("bench.test.marker"));
        assert!(report.config.contains_key("scale"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_written_to_disk() {
        let dir = std::env::temp_dir().join(format!("benchrep-{}", std::process::id()));
        let opts = BenchOpts { out: dir.clone(), ..BenchOpts::default() };
        #[derive(Serialize)]
        struct R {
            x: u32,
        }
        let path = opts.write_report("unit", &R { x: 7 });
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"x\": 7"));
        std::fs::remove_dir_all(dir).ok();
    }
}
