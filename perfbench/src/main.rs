//! One-node GSN benchmark: the paper's Figures 3 and 4 end to end, ad-hoc
//! history queries and federated mesh queries, plus a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest_durable|continuous_clients|adhoc_history|mesh_federated> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run from the repository root.  The last line of standard output is the
//! result object (`correct`, `attempted`, `failed`, `metrics`); the line before
//! it is the full report with the `env` block and every workload-specific
//! metric.  See `perfbench/README.md` for the workloads and metrics.

mod adhoc;
mod clients;
mod ingest;
mod layers;
mod mesh;
mod node;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use util::{Json, Rate, Samples};

pub const WORKLOADS: [&str; 4] = [
    "ingest_durable",
    "continuous_clients",
    "adhoc_history",
    "mesh_federated",
];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: Duration,
    /// Tiny sizes, one set-up: every workload finishes in about a second.
    pub smoke: bool,
    /// Scratch directory for data dirs and the span file, inside the checkout.
    pub scratch: PathBuf,
}

impl Settings {
    /// A fresh data directory for one set-up.
    pub fn data_dir(&self, tag: &str) -> PathBuf {
        let dir = self.scratch.join(format!("{tag}-{}", self.seed));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Sets the workload up repeatedly (at least 5 times, then until about
    /// 1.5 s of set-up time is spent, at most 25 times; once in smoke mode) and
    /// keeps the last one.  Returns it with every set-up's time in seconds.
    /// `dir`, when given, is emptied before each set-up, outside the timing.
    pub fn set_up<T>(
        &self,
        dir: Option<&std::path::Path>,
        mut build: impl FnMut() -> T,
    ) -> (T, Vec<f64>) {
        let (min, max) = if self.smoke { (1, 1) } else { (5, 25) };
        let mut times = Vec::new();
        let mut spent = 0.0;
        let mut last = None;
        while times.len() < min || (spent < 1.5 && times.len() < max) {
            drop(last.take());
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            let start = Instant::now();
            last = Some(build());
            let took = start.elapsed().as_secs_f64();
            spent += took;
            times.push(took);
        }
        (last.expect("at least one set-up"), times)
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The workload's primary operation: see README.md.
    pub latency: Samples,
    /// Operations completed against busy time.
    pub rate: Rate,
    pub attempted: u64,
    pub failed: u64,
    /// Failed whole-run checks, by description.
    pub violations: Vec<String>,
    /// Workload-specific metrics and run parameters.
    pub report: Json,
    pub env: Json,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// What a traced run measured: every per-layer metric plus coverage.
#[derive(Debug, Default)]
pub struct Traced {
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub report: Json,
    pub env: Json,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok(),
            ("--trace", Some(v)) => traced = v == "1",
            ("--smoke", _) => {
                smoke = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let settings = Settings {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        smoke,
        scratch: PathBuf::from(".perfbench").join(format!("{workload}-{}", std::process::id())),
    };
    let line = if traced {
        traced_line(&workload, &settings)
    } else {
        untraced_line(&workload, &settings)
    };
    let _ = std::fs::remove_dir_all(&settings.scratch);
    println!("{line}");
}

fn env_block(workload: &str, settings: &Settings, extra: Json) -> Json {
    Json::obj()
        .str("workload", workload)
        .int("seed", settings.seed)
        .num("seconds", settings.seconds.as_secs_f64())
        .bool("smoke", settings.smoke)
        .int(
            "cores",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .str("git_rev", &util::git_rev())
        .str("date", &util::utc_date())
        .obj_field("workload_env", extra)
}

fn run_untraced(workload: &str, settings: &Settings) -> Outcome {
    match workload {
        "ingest_durable" => ingest::run(settings),
        "continuous_clients" => clients::run(settings),
        "adhoc_history" => adhoc::run(settings),
        _ => mesh::run(settings),
    }
}

fn untraced_line(workload: &str, settings: &Settings) -> String {
    let out = run_untraced(workload, settings);
    let setup_s = util::median(&out.setup_s);
    let p50 = out.latency.windowed(0.5);
    let p90 = out.latency.windowed(0.9);
    let throughput = out.rate.windowed();
    let rss = util::peak_rss_mb();
    let correct = out.violations.is_empty() && out.failed == 0 && out.attempted > 0;
    let metric = |v: f64, unit: &str| Json::obj().num("value", v).str("unit", unit);
    let metrics = Json::obj()
        .obj_field("setup_s", metric(setup_s, "s"))
        .obj_field("latency_p50_ms", metric(p50, "ms"))
        .obj_field("latency_p90_ms", metric(p90, "ms"))
        .obj_field("throughput_per_s", metric(throughput, "1/s"))
        .obj_field("peak_rss_mb", metric(rss, "MB"));
    let full = Json::obj()
        .obj_field("env", env_block(workload, settings, out.env))
        .obj_field("latency", out.latency.summary())
        .num("throughput_whole_run_per_s", out.rate.total())
        .num("throughput_windowed_per_s", throughput)
        .strs(
            "setup_runs_s",
            &out.setup_s
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .num(
            "failed_ops_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        )
        .strs("violations", &out.violations)
        .obj_field("workload_metrics", out.report);
    println!("{}", Json::obj().obj_field("report", full).render());
    for v in &out.violations {
        eprintln!("check failed: {v}");
    }
    Json::obj()
        .bool("correct", correct)
        .int("attempted", out.attempted.max(1))
        .int("failed", out.failed)
        .obj_field("metrics", metrics)
        .render()
}

fn run_traced(workload: &str, settings: &Settings) -> Traced {
    match workload {
        "ingest_durable" => ingest::trace(settings),
        "continuous_clients" => clients::trace(settings),
        "adhoc_history" => adhoc::trace(settings),
        _ => mesh::trace(settings),
    }
}

fn traced_line(workload: &str, settings: &Settings) -> String {
    let out = run_traced(workload, settings);
    let correct = out.violations.is_empty() && out.failed == 0 && out.attempted > 0;
    let mut metrics = Json::obj();
    for (name, unit) in layers::PER_LAYER {
        let value = out.layers.get(name).copied().unwrap_or(0.0);
        metrics = metrics.obj_field(name, Json::obj().num("value", value).str("unit", unit));
    }
    let full = Json::obj()
        .obj_field("env", env_block(workload, settings, out.env))
        .strs("violations", &out.violations)
        .obj_field("trace_report", out.report);
    println!("{}", Json::obj().obj_field("report", full).render());
    for v in &out.violations {
        eprintln!("check failed: {v}");
    }
    Json::obj()
        .bool("correct", correct)
        .int("attempted", out.attempted.max(1))
        .int("failed", out.failed)
        .obj_field("metrics", metrics)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-mode settings with a scratch directory of the test's own.
    fn smoke(test: &str, workload: &str) -> Settings {
        Settings {
            seed: 7,
            seconds: Duration::from_millis(400),
            smoke: true,
            scratch: PathBuf::from(".perfbench")
                .join(format!("{test}-{workload}-{}", std::process::id())),
        }
    }

    #[test]
    fn every_workload_passes_its_checks_in_smoke_mode() {
        for workload in WORKLOADS {
            let settings = smoke("untraced", workload);
            let out = run_untraced(workload, &settings);
            let _ = std::fs::remove_dir_all(&settings.scratch);
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(out.failed, 0, "{workload}: {:?}", out.violations);
            assert!(
                out.violations.is_empty(),
                "{workload}: {:?}",
                out.violations
            );
            assert_eq!(out.setup_s.len(), 1, "{workload}: one set-up in smoke mode");
            assert!(out.latency.windowed(0.5) > 0.0, "{workload}: no latency");
            assert!(out.rate.windowed() > 0.0, "{workload}: no throughput");
        }
    }

    #[test]
    fn traced_runs_report_known_layers_with_full_coverage() {
        for workload in WORKLOADS {
            let settings = smoke("traced", workload);
            let out = run_traced(workload, &settings);
            let _ = std::fs::remove_dir_all(&settings.scratch);
            assert_eq!(out.failed, 0, "{workload}: {:?}", out.violations);
            assert!(
                out.violations.is_empty(),
                "{workload}: {:?}",
                out.violations
            );
            for name in out.layers.keys() {
                assert!(
                    layers::PER_LAYER.iter().any(|(n, _)| n == name),
                    "{workload}: unknown layer metric {name}"
                );
            }
            let coverage = out.layers.get("trace.coverage").copied().unwrap_or(0.0);
            assert!(coverage > 0.5, "{workload}: coverage {coverage}");
        }
    }
}
