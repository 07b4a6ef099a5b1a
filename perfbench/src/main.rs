//! The repository's standing benchmark: four named workloads, each run
//! for a fixed wall-clock budget from a seed, with correctness gates on
//! every run.
//!
//! ```text
//! perfbench --workload <engine_ff|engine_chaos|cluster_gateway|check>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--ssp-bin <path to the ssp binary>] [--work-dir <dir>]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the per-layer metrics of a separate traced run. A
//! run that fails a gate prints `"correct": false` and exits 1. Wall
//! intervals are always the benchmark's own `Instant`s; simulated time
//! appears only in metrics named `sim_*`.

mod check;
mod cluster;
mod engine;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("acked_per_s", "1/s"),
    ("acked_share", "share"),
    ("ack_rounds_p50", "rounds"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that bypasses a
/// layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.instance_ms_p50", "ms"),
    ("runtime.instance_ms_p99", "ms"),
    ("runtime.busy_share", "share"),
    ("runtime.wires_per_instance", "count"),
    ("runtime.retransmits_per_instance", "count"),
    ("runtime.delivered_per_wire", "share"),
    ("runtime.pending_per_instance", "count"),
    ("runtime.sim_ms_per_instance", "sim_ms"),
    ("rounds.run_us_p50", "us"),
    ("rounds.runtime_over_rounds", "ratio"),
    ("lab.audit_ms_p50", "ms"),
    ("lab.audit_tail_ms", "ms"),
    ("lab.verify_s", "s"),
    ("verify_runs_per_s", "1/s"),
    ("explore.class_ms_p50", "ms"),
    ("explore_classes_per_s", "1/s"),
    ("explore.duplicates", "count"),
    ("engine.propose_us_p50", "us"),
    ("engine.commit_apply_us_p50", "us"),
    ("engine.queue_wait_ms_p50", "ms"),
    ("engine.batch_fill", "share"),
    ("engine.reproposed_share", "share"),
    ("gateway.resubmits_per_req", "count"),
    ("gateway.busy_per_req", "count"),
    ("gateway.redirects_per_req", "count"),
    ("gateway.reconnects", "count"),
    ("transport.frames_per_ack", "count"),
    ("transport.retransmits", "count"),
    ("transport.backoff_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// Metric name → measured value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Parsed command line.
pub struct Opts {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub ssp_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// Correctness gates: every failed check is recorded; any failure makes
/// the run a failed run.
#[derive(Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Gates,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub detail: Vec<String>,
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or(format!("--{name} is required"))
    };
    let workload = get("workload")?.to_string();
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed: not an unsigned integer".to_string())?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds: not an unsigned integer".to_string())?;
    if seconds == 0 {
        return Err("--seconds: at least 1".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: 0 or 1, got {other:?}")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let ssp_bin = flags
        .get("ssp-bin")
        .map_or_else(|| exe.with_file_name("ssp"), PathBuf::from);
    let work_dir = PathBuf::from(flags.get("work-dir").copied().unwrap_or(".perfbench_work"));
    Ok((
        workload,
        Opts {
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
            ssp_bin,
            work_dir,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let noise = stats::Noise::start();
    let outcome = match workload.as_str() {
        "engine_ff" => engine::run(engine::Kind::FailureFree, &opts),
        "engine_chaos" => engine::run(engine::Kind::Chaos, &opts),
        "cluster_gateway" => cluster::run(&opts),
        "check" => check::run(&opts),
        other => {
            eprintln!(
                "error: unknown workload {other:?} \
                 (engine_ff, engine_chaos, cluster_gateway, check)"
            );
            return ExitCode::from(2);
        }
    };

    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = outcome.metrics;
    let unknown: Vec<&str> = metrics
        .keys()
        .copied()
        .filter(|k| !table.iter().any(|(name, _)| name == k))
        .collect();
    assert!(unknown.is_empty(), "metrics outside the table: {unknown:?}");
    let mut bypassed = Vec::new();
    for (name, _) in table {
        if !metrics.contains_key(name) {
            assert!(opts.trace, "end-to-end metric {name} not measured");
            bypassed.push(*name);
            metrics.insert(name, 0.0);
        }
    }

    println!(
        "workload {workload}, seed {}, trace {}",
        opts.seed,
        u8::from(opts.trace)
    );
    for line in &outcome.detail {
        println!("{line}");
    }
    if !bypassed.is_empty() {
        println!(
            "layers not on this workload's path (reported as 0): {}",
            bypassed.join(", ")
        );
    }
    for failure in &outcome.gates.failures {
        println!("GATE FAILED: {failure}");
    }
    println!("noise {}", noise.to_json());
    for (name, unit) in table {
        println!("  {name:<34} {:>16.6} {unit}", metrics[name]);
    }

    let correct = outcome.gates.failures.is_empty();
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}
