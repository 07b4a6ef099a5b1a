//! `check`: the researcher's path — an exhaustive [`Verifier`] sweep of
//! FloodSetWS under RWS (n = 3, t = 2; pure round-model execution) and
//! an [`Explorer`] pass over FloodSet under RWS (n = 4, t = 1; every
//! inequivalent class run once on the virtual-clock runtime). No
//! engine, socket or gateway.
//!
//! Each pass also executes a stream of seeded fault plans of the
//! explored configuration on the same runtime the explorer uses: these
//! executions — the explorer's unit of work — are the workload's
//! acknowledged requests, with their own latency and decision round.

use std::time::{Duration, Instant};

use ssp_algos::{FloodSet, FloodSetWs};
use ssp_explore::Explorer;
use ssp_lab::verifier::RoundModel;
use ssp_lab::{audit_instance, ValidityMode, Verifier};
use ssp_model::InitialConfig;
use ssp_rounds::run_rws;
use ssp_runtime::{Backend, PlanModel, RuntimeBuilder};

use crate::spans::Spans;
use crate::stats::{median, ms, pooled, quiet_median, quietest, ratio, rounds_p50, Acks, Noise};
use crate::{Gates, Metrics, Opts, Outcome};

const BINARY: &[u64] = &[0, 1];

/// Exhaustive run count of FloodSetWS, RWS, n = 3, t = 2, binary inputs.
const VERIFY_RUNS: u64 = 907_928;
/// Inequivalent RunLog classes of FloodSet, RWS, n = 4, t = 1, and how
/// many of them violate uniform agreement (FloodSet is not an RWS
/// algorithm).
const EXPLORE_CLASSES: u64 = 1005;
const EXPLORE_VIOLATIONS: u64 = 18;

/// Distinct inputs, so any agreement violation is visible.
fn explore_inputs(n: u64) -> InitialConfig<u64> {
    InitialConfig::new((0..n).map(|i| 10 + i).collect())
}

struct Verified {
    runs: u64,
    ok: bool,
    wall: Duration,
}

impl Verified {
    fn rate(&self) -> f64 {
        ratio(self.runs, 1) / self.wall.as_secs_f64()
    }
}

fn verify(n: usize, t: usize) -> Verified {
    let start = Instant::now();
    let v = Verifier::new(&FloodSetWs)
        .n(n)
        .t(t)
        .domain(BINARY)
        .mode(ValidityMode::Strong)
        .model(RoundModel::Rws)
        .threads(1)
        .run();
    Verified {
        runs: v.runs,
        ok: v.is_ok(),
        wall: start.elapsed(),
    }
}

struct Explored {
    classes: u64,
    executed: u64,
    duplicates: u64,
    violations: u64,
    divergences: usize,
    wall: Duration,
}

impl Explored {
    fn rate(&self) -> f64 {
        ratio(self.executed, 1) / self.wall.as_secs_f64()
    }
}

fn explore(n: u64, model: PlanModel, limit: Option<u64>) -> Explored {
    let config = explore_inputs(n);
    let start = Instant::now();
    let report = Explorer::new(&FloodSet, &config)
        .t(1)
        .model(model)
        .backend(Backend::Virtual)
        .limit(limit)
        .run()
        .expect("explorer bounds hold");
    let wall = start.elapsed();
    Explored {
        classes: report.classes,
        executed: report.executed,
        duplicates: report.duplicates,
        violations: report.violations,
        divergences: report.divergences.len(),
        wall,
    }
}

/// Seeded executions per batch, and batches per pass: a batch lasts a
/// few tens of milliseconds, so many batches see no host steal.
const BATCH: u64 = 25;
const BATCHES_PER_PASS: u64 = 40;

/// One batch of seeded executions of the explored configuration.
struct Batch {
    wall: Duration,
    acks: Acks,
    failed: u64,
    steal_per_s: f64,
}

/// Runs `BATCH` seeded plans from `first_seed` on the virtual-clock
/// runtime. With `spans`, each execution is also replayed through the
/// round model and audited, each step timed.
fn batch(first_seed: u64, mut spans: Option<&mut Spans>, gates: &mut Gates) -> Batch {
    let config = explore_inputs(4);
    let mut samples = Vec::with_capacity(usize::try_from(BATCH).unwrap_or(0));
    let mut failed = 0;
    let noise = Noise::start();
    let start = Instant::now();
    for k in 0..BATCH {
        let seed = first_seed.wrapping_add(k);
        let t = Instant::now();
        let result = RuntimeBuilder::new(&FloodSet, &config)
            .t(1)
            .model(PlanModel::Rws)
            .seed(seed)
            .backend(Backend::Virtual)
            .run()
            .expect("seeded plans are valid");
        let took = t.elapsed();
        // Rounds until every correct process decided (§5.2).
        match result.outcome.latency_degree() {
            Some(round) => samples.push((ms(took), round)),
            None => failed += 1,
        }
        if let Some(spans) = spans.as_deref_mut() {
            spans.instance_ms.push(ms(took));
            let t = Instant::now();
            let replay = run_rws(
                &FloodSet,
                &config,
                1,
                &result.trace.schedule(),
                &result.trace.pending(),
            );
            spans.rounds_us.push(ms(t.elapsed()) * 1e3);
            std::hint::black_box(replay.ok());
            let t = Instant::now();
            let audit = audit_instance(&FloodSet, &config, 1, &result, ValidityMode::Uniform, k);
            spans.audit_ms.push(ms(t.elapsed()));
            gates.check(audit.divergence.is_none(), || {
                format!("seeded execution {seed}: runtime diverged from the round model")
            });
            spans.count_instance(&result);
        }
    }
    Batch {
        wall: start.elapsed(),
        acks: Acks::of(&samples),
        failed,
        steal_per_s: noise.steal_per_s(),
    }
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(opts: &Opts) -> Outcome {
    let mut gates = Gates::default();
    let mut metrics = Metrics::new();
    let mut detail = Vec::new();
    let began = Instant::now();
    let noise = Noise::start();

    let mut setups = Vec::new();
    let mut verify_rates = Vec::new();
    let mut explore_rates = Vec::new();
    let mut verify_s = Vec::new();
    let mut class_ms = Vec::new();
    let mut duplicates = 0u64;
    let mut batches: Vec<Batch> = Vec::new();
    let mut traced: Vec<(Batch, Spans)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next_seed = opts.seed;

    while verify_s.is_empty() || began.elapsed() < opts.seconds {
        // Set-up: a warm-up sweep small enough to be noise against the
        // pass, large enough to fault in the checker's code and memory.
        let noise = Noise::start();
        let t = Instant::now();
        let warm = verify(3, 1);
        gates.check(warm.ok, || "warm-up sweep reported a violation".to_string());
        setups.push((t.elapsed().as_secs_f64(), noise.steal_per_s()));

        let noise = Noise::start();
        let v = verify(3, 2);
        let verify_steal = noise.steal_per_s();
        let noise = Noise::start();
        let e = explore(4, PlanModel::Rws, None);
        let explore_steal = noise.steal_per_s();
        let ok = v.ok
            && v.runs == VERIFY_RUNS
            && e.classes == EXPLORE_CLASSES
            && e.violations == EXPLORE_VIOLATIONS
            && e.divergences == 0;
        gates.check(ok, || {
            format!(
                "verifier ok={} over {} runs (want {VERIFY_RUNS}); explorer {} classes, {} \
                 violations, {} divergences (want {EXPLORE_CLASSES}, {EXPLORE_VIOLATIONS}, 0)",
                v.ok, v.runs, e.classes, e.violations, e.divergences
            )
        });
        attempted += 2;
        failed += 2 * u64::from(!ok);
        verify_rates.push((v.rate(), verify_steal));
        explore_rates.push((e.rate(), explore_steal));
        verify_s.push(v.wall.as_secs_f64());
        class_ms.push(ms(e.wall) / e.executed.max(1) as f64);
        duplicates += e.duplicates;

        for _ in 0..BATCHES_PER_PASS {
            let b = batch(next_seed, None, &mut gates);
            attempted += BATCH;
            failed += b.failed;
            batches.push(b);
            if opts.trace {
                let mut spans = Spans::default();
                let b = batch(next_seed, Some(&mut spans), &mut gates);
                traced.push((b, spans));
            }
            next_seed = next_seed.wrapping_add(BATCH);
        }
    }
    let busy_share = noise.busy_share();
    gates.check(failed == 0, || {
        format!("{failed} of {attempted} requests failed")
    });

    let acked: u64 = batches.iter().map(|b| b.acks.count).sum();
    detail.push(format!(
        "passes {}: verifier {VERIFY_RUNS} runs in {:.3} s, explorer {EXPLORE_CLASSES} classes \
         at {:.3} ms/class (medians); {acked} seeded executions in batches of {BATCH}",
        verify_s.len(),
        median(&verify_s),
        median(&class_ms)
    ));
    if opts.trace {
        // Traced batch `i` replays batch `i`; the pairs with the least
        // host steal over both give the per-layer figures.
        let pairs: Vec<usize> = (0..traced.len()).collect();
        let quiet = quietest(&pairs, |&i| {
            batches[i].steal_per_s + traced[i].0.steal_per_s
        });
        let overheads: Vec<f64> = quiet
            .iter()
            .map(|&&i| traced[i].0.wall.as_secs_f64() / batches[i].wall.as_secs_f64() - 1.0)
            .collect();
        let mut spans = Spans::default();
        for &&i in &quiet {
            spans.absorb(std::mem::take(&mut traced[i].1));
        }
        spans.insert_runtime(&mut metrics);
        metrics.insert("runtime.busy_share", busy_share);
        metrics.insert("lab.verify_s", median(&verify_s));
        metrics.insert(
            "verify_runs_per_s",
            quiet_median(&verify_rates, |r| r.1, |r| r.0),
        );
        metrics.insert(
            "explore_classes_per_s",
            quiet_median(&explore_rates, |r| r.1, |r| r.0),
        );
        metrics.insert("explore.class_ms_p50", median(&class_ms));
        metrics.insert("explore.duplicates", duplicates as f64);
        metrics.insert("trace.overhead_share", median(&overheads));
    } else {
        let quiet = |f: &dyn Fn(&Batch) -> f64| quiet_median(&batches, |b| b.steal_per_s, f);
        let quiet_acks = quietest(&batches, |b| b.steal_per_s)
            .into_iter()
            .map(|b| &b.acks);
        metrics.insert("setup_s", quiet_median(&setups, |s| s.1, |s| s.0));
        metrics.insert("ack_p50_ms", pooled(quiet_acks, 0.5));
        metrics.insert("ack_p99_ms", quiet(&|b| b.acks.p99_ms));
        metrics.insert(
            "acked_per_s",
            quiet(&|b| b.acks.count as f64 / b.wall.as_secs_f64()),
        );
        metrics.insert("acked_share", ratio(attempted - failed, attempted));
        metrics.insert(
            "ack_rounds_p50",
            rounds_p50(batches.iter().map(|b| &b.acks)),
        );

        metrics.insert("peak_rss_mb", crate::stats::peak_rss_mb());
    }

    Outcome {
        attempted,
        failed,
        gates,
        metrics,
        detail,
    }
}
