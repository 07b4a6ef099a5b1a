//! `engine_ff` and `engine_chaos`: the in-process engine (one group,
//! n = 3, t = 1, virtual clock) driven by the benchmark's own scripted
//! closed-loop clients through [`serve_sharded_with`].
//!
//! The traced run re-drives the same one-group pipeline step by step
//! through the engine's public calls — [`Proposer`], [`KvStore`],
//! [`RuntimeBuilder`], [`audit_instance`] — with a span around each
//! call, and must reproduce the untraced run's KV digest, decided count
//! and acked count for the seed.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use ssp_algos::{CtRounds, A1};
use ssp_engine::{
    instance_seed, serve_sharded_with, Batch, ClientRequest, Command, CommandId, EngineConfig,
    ExternalSource, FaultMode, KvStore, Proposer, ShardedConfig, Workload, WorkloadConfig,
    EXTERNAL_BIT,
};
use ssp_gateway::load_op;
use ssp_lab::audit_instance;
use ssp_model::InitialConfig;
use ssp_rounds::{run_rs, run_rws, RoundAlgorithm, RoundProcess};
use ssp_runtime::{
    Backend, ChaosConfig, FaultPlan, GatewayStats, PlanModel, RuntimeBuilder, RuntimeConfig,
};

use crate::spans::Spans;
use crate::stats::{
    median, ms, nproc, pooled, quiet_median, quietest, ratio, rounds_p50, Acks, Noise,
};
use crate::{Gates, Metrics, Opts, Outcome};

/// Scripted clients: exactly `batch_max`, so every instance's external
/// tail is full while the load lasts.
const CLIENTS: usize = 8;
const BATCH_MAX: usize = 8;
/// First external client id of the script.
const CLIENT_BASE: u64 = 1;
/// Instance budget far above any pass: the run ends by draining.
const INSTANCE_BUDGET: u64 = 1 << 40;

/// Which of the two engine workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A1 under RS, failure-free: the one-round decide fast path.
    FailureFree,
    /// CtRounds under RWS with seeded crash plans and 20% loss, 5%
    /// duplication, 5% reordering.
    Chaos,
}

impl Kind {
    /// Requests per client in one pass: a pass lasts a few tens of
    /// milliseconds, short enough that many passes see no host steal at
    /// all (see [`quiet_median`]).
    fn requests_per_client(self) -> u64 {
        match self {
            Kind::FailureFree => 50,
            Kind::Chaos => 32,
        }
    }

    fn model(self) -> PlanModel {
        match self {
            Kind::FailureFree => PlanModel::Rs,
            Kind::Chaos => PlanModel::Rws,
        }
    }

    /// Client-observed decision round: Λ(A1) = 1 in RS, t + 1 = 2 for
    /// CtRounds in RWS (Theorem 5.2).
    fn expected_round(self) -> u32 {
        match self {
            Kind::FailureFree => 1,
            Kind::Chaos => 2,
        }
    }
}

fn sharded_config(kind: Kind, seed: u64) -> ShardedConfig {
    let mut engine = EngineConfig::new(3, 1, kind.model());
    engine.seed = seed;
    engine.instances = INSTANCE_BUDGET;
    engine.batch_max = BATCH_MAX;
    engine.run_to_drain = true;
    engine.backend = Backend::Virtual;
    match kind {
        Kind::FailureFree => engine.faults = FaultMode::FailureFree,
        Kind::Chaos => {
            engine.faults = FaultMode::Seeded;
            engine.chaos = Some(ChaosConfig {
                loss_pm: 200,
                dup_pm: 50,
                reorder_pm: 50,
            });
        }
    }
    ShardedConfig::new(engine, 1)
}

/// The engine's own seed workload, spent from the start: every command
/// in these runs comes from the benchmark's clients.
fn empty_workload(seed: u64) -> Workload {
    let mut wcfg = WorkloadConfig::new(1);
    wcfg.commands_per_client = Some(0);
    Workload::new(seed, wcfg)
}

/// Closed-loop scripted clients behind the engine's [`ExternalSource`]
/// seam: each client holds at most one request outstanding, and every
/// acknowledgement's wall latency is recorded from its admission
/// (`drain`).
struct BenchSource {
    scripts: Vec<VecDeque<Command>>,
    outstanding: Vec<Option<(CommandId, Instant)>>,
    attempted: u64,
    admitted: u64,
    /// `(latency ms, decision round)` per acknowledgement.
    acks: Vec<(f64, u32)>,
    /// Acknowledgements of a request that was not outstanding.
    double_acks: u64,
    first_admit: Option<Instant>,
    last_ack: Option<Instant>,
}

impl BenchSource {
    fn new(seed: u64, requests_per_client: u64) -> Self {
        let scripts: Vec<VecDeque<Command>> = (0..CLIENTS as u64)
            .map(|c| {
                let client = CLIENT_BASE + c;
                (0..requests_per_client)
                    .map(|r| Command {
                        id: CommandId::external(client, r),
                        op: load_op(seed, client, r),
                    })
                    .collect()
            })
            .collect();
        BenchSource {
            attempted: scripts.iter().map(|s| s.len() as u64).sum(),
            outstanding: vec![None; scripts.len()],
            scripts,
            admitted: 0,
            acks: Vec::new(),
            double_acks: 0,
            first_admit: None,
            last_ack: None,
        }
    }

    fn client_of(id: CommandId) -> usize {
        usize::try_from(u64::from(id.client & !EXTERNAL_BIT) - CLIENT_BASE)
            .expect("scripted client index")
    }

    /// The pass this source's samples describe, once the serving call
    /// returned at `returned`.
    fn into_pass(self, setup: Duration, start: Instant, served: Served, noise: &Noise) -> Pass {
        let returned = Instant::now();
        Pass {
            setup,
            wall: returned - start,
            attempted: self.attempted,
            double_acks: self.double_acks,
            ack_window: match (self.first_admit, self.last_ack) {
                (Some(a), Some(b)) => b - a,
                _ => Duration::ZERO,
            },
            audit_tail: self.last_ack.map_or(Duration::ZERO, |l| returned - l),
            acks: Acks::of(&self.acks),
            served,
            cpu_s: noise.cpu_s(),
            steal_per_s: noise.steal_per_s(),
        }
    }

    /// When the outstanding request `id` was admitted.
    fn admitted_at(&self, id: CommandId) -> Option<Instant> {
        match self.outstanding.get(Self::client_of(id)) {
            Some(Some((o, at))) if *o == id => Some(*at),
            _ => None,
        }
    }
}

impl ExternalSource for BenchSource {
    fn drain(&mut self, max: usize) -> Vec<ClientRequest> {
        let now = Instant::now();
        let mut out = Vec::new();
        for (script, slot) in self.scripts.iter_mut().zip(&mut self.outstanding) {
            if out.len() >= max {
                break;
            }
            if slot.is_some() {
                continue;
            }
            let Some(cmd) = script.pop_front() else {
                continue;
            };
            *slot = Some((cmd.id, now));
            self.admitted += 1;
            self.first_admit.get_or_insert(now);
            out.push(ClientRequest::Single(cmd));
        }
        out
    }

    fn acknowledge(&mut self, id: CommandId, _instance: u64, round: u32) {
        let now = Instant::now();
        let slot = self.outstanding.get_mut(Self::client_of(id));
        match slot {
            Some(slot) if slot.is_some_and(|(o, _)| o == id) => {
                let (_, at) = slot.take().expect("checked outstanding");
                self.acks.push((ms(now - at), round));
                self.last_ack = Some(now);
            }
            _ => self.double_acks += 1,
        }
    }

    fn exhausted(&self) -> bool {
        self.scripts.iter().all(VecDeque::is_empty) && self.outstanding.iter().all(Option::is_none)
    }

    fn stats(&self) -> GatewayStats {
        GatewayStats {
            admitted: self.admitted,
            ..GatewayStats::default()
        }
    }
}

/// What one pass produced, traced or not: the fields the traced run
/// must reproduce plus the client-observed samples.
struct Pass {
    setup: Duration,
    wall: Duration,
    attempted: u64,
    acks: Acks,
    double_acks: u64,
    /// First admission to last acknowledgement.
    ack_window: Duration,
    /// Last acknowledgement to the serving call's return.
    audit_tail: Duration,
    served: Served,
    /// Process CPU seconds over the serving call.
    cpu_s: f64,
    /// Host steal ticks per second over the serving call.
    steal_per_s: f64,
}

/// What the serving side reports for a pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Served {
    digest: u64,
    decided: u64,
    violations: u64,
    divergences: u64,
}

impl Pass {
    fn acked(&self) -> u64 {
        self.acks.count
    }

    #[allow(clippy::cast_precision_loss)]
    fn acked_per_s(&self) -> f64 {
        self.acks.count as f64 / self.ack_window.as_secs_f64().max(1e-9)
    }

    fn gate(&self, kind: Kind, gates: &mut Gates, what: &str) {
        gates.check(self.double_acks == 0, || {
            format!("{what}: {} double acks", self.double_acks)
        });
        gates.check(self.acked() == self.attempted, || {
            format!("{what}: {} of {} acked", self.acked(), self.attempted)
        });
        let s = self.served;
        gates.check(s.violations == 0 && s.divergences == 0, || {
            format!(
                "{what}: {} audit violations, {} divergences",
                s.violations, s.divergences
            )
        });
        let p50 = rounds_p50(std::iter::once(&self.acks));
        gates.check(p50 == f64::from(kind.expected_round()), || {
            format!(
                "{what}: ack rounds p50 {p50}, expected {}",
                kind.expected_round()
            )
        });
    }
}

fn serve_pass<A>(algo: &A, kind: Kind, seed: u64) -> Pass
where
    A: RoundAlgorithm<Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    let t0 = Instant::now();
    let cfg = sharded_config(kind, seed);
    cfg.validate().expect("benchmark engine config is valid");
    let mut workload = empty_workload(seed);
    let mut source = BenchSource::new(seed, kind.requests_per_client());
    let setup = t0.elapsed();

    let noise = Noise::start();
    let start = Instant::now();
    let report = serve_sharded_with(algo, &cfg, &mut workload, &mut source)
        .expect("benchmark engine config is valid");
    let stats = &report.stats.groups[0];
    let served = Served {
        digest: stats.kv_digest,
        decided: stats.decided_instances,
        violations: stats.audit_violations,
        divergences: stats.audit_divergences,
    };
    source.into_pass(setup, start, served, &noise)
}

/// Instance `i`'s runtime configuration, built from public calls
/// exactly as the engine's per-group pipeline builds it.
fn instance_runtime(cfg: &EngineConfig, instance: u64, horizon: u32) -> RuntimeConfig {
    let mut plan = FaultPlan::from_seed(
        instance_seed(cfg.seed, instance),
        cfg.n,
        cfg.t,
        horizon,
        cfg.model,
    );
    if cfg.faults == FaultMode::FailureFree {
        plan.crashes = vec![None; cfg.n];
        plan.slow.clear();
    }
    if let Some(chaos) = cfg.chaos {
        plan = plan.with_chaos(chaos);
    }
    plan = plan.with_degrade(cfg.degrade);
    plan.runtime_config().with_early_close(cfg.early_close)
}

/// The one-group pipeline of `serve_sharded_with`, re-driven call by
/// call with a span around each layer.
#[allow(clippy::too_many_lines)]
fn traced_pass<A>(algo: &A, kind: Kind, seed: u64, spans: &mut Spans) -> Pass
where
    A: RoundAlgorithm<Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    let t0 = Instant::now();
    let cfg = sharded_config(kind, seed);
    let e = &cfg.engine;
    let horizon = algo.round_horizon(e.n, e.t);
    let mut workload = empty_workload(seed);
    let mut source = BenchSource::new(seed, kind.requests_per_client());
    let setup = t0.elapsed();

    let noise = Noise::start();
    let start = Instant::now();
    let mut proposer = Proposer::new();
    let mut kv = KvStore::default();
    let mut carried: HashMap<CommandId, u32> = HashMap::new();
    let (mut decided, mut violations, mut divergences) = (0u64, 0u64, 0u64);
    let mut instance = 0u64;
    let idle = |workload: &Workload, proposer: &Proposer| {
        workload.drained() && proposer.pending_len() == 0 && proposer.external_len() == 0
    };
    while instance < e.instances {
        let quiescent = idle(&workload, &proposer);
        if quiescent && source.exhausted() {
            break;
        }
        for request in workload.poll_requests() {
            if let ClientRequest::Single(cmd) = request {
                proposer.submit(cmd);
            }
        }
        let requests = source.drain(e.batch_max.max(1));
        if requests.is_empty() && quiescent {
            // The engine would wait on the wall clock for an admission
            // that a scripted source can never make.
            panic!("scripted source stalled with requests outstanding");
        }
        for request in requests {
            if let ClientRequest::Single(cmd) = request {
                if let Some((at, round)) = proposer.decided_at(cmd.id) {
                    source.acknowledge(cmd.id, at, round);
                } else {
                    proposer.submit_external(cmd);
                }
            }
        }
        if idle(&workload, &proposer) {
            continue;
        }

        let t = Instant::now();
        let mut proposals = proposer.proposals(e.n, e.batch_max, instance);
        let tail = proposer.external_tail(e.batch_max.max(1));
        for proposal in &mut proposals {
            proposal.0.extend(tail.iter().copied());
        }
        let config = InitialConfig::new(proposals);
        let runtime = instance_runtime(e, instance, horizon);
        spans.propose_us.push(ms(t.elapsed()) * 1e3);
        for cmd in &tail {
            *carried.entry(cmd.id).or_default() += 1;
        }

        let run_start = Instant::now();
        let result = RuntimeBuilder::new(algo, &config)
            .t(e.t)
            .runtime(runtime)
            .backend(e.backend)
            .run()
            .expect("benchmark runtime config is valid");
        spans.instance_ms.push(ms(run_start.elapsed()));

        let t = Instant::now();
        if let Some((batch, round)) = result.outcome.iter().find_map(|(_, o)| o.decision.clone()) {
            let committed = proposer
                .commit(&batch, instance, round.get())
                .unwrap_or_else(|err| panic!("instance {instance}: {err}"));
            for cmd in &committed {
                kv.apply(&cmd.op);
                if cmd.id.is_external() {
                    if let Some(at) = source.admitted_at(cmd.id) {
                        spans
                            .queue_wait_ms
                            .push(ms(run_start.saturating_duration_since(at)));
                    }
                    if carried.get(&cmd.id).is_some_and(|&k| k > 1) {
                        spans.reproposed += 1;
                    }
                    source.acknowledge(cmd.id, instance, round.get());
                } else {
                    workload.acknowledge(cmd.id);
                }
            }
            decided += 1;
            spans.decided_batches += 1;
            spans.decided_cmds += batch.len() as u64;
        }
        spans.commit_apply_us.push(ms(t.elapsed()) * 1e3);

        spans.count_instance(&result);

        let t = Instant::now();
        let audit = audit_instance(algo, &config, e.t, &result, e.validity, instance);
        spans.audit_ms.push(ms(t.elapsed()));
        violations += u64::from(audit.violation.is_some());
        divergences += u64::from(audit.divergence.is_some());

        let t = Instant::now();
        let schedule = result.trace.schedule();
        let replay = match e.model {
            PlanModel::Rs => Some(run_rs(algo, &config, e.t, &schedule)),
            PlanModel::Rws => run_rws(algo, &config, e.t, &schedule, &result.trace.pending()).ok(),
        };
        spans.rounds_us.push(ms(t.elapsed()) * 1e3);
        std::hint::black_box(replay);

        instance += 1;
    }
    let served = Served {
        digest: kv.digest(),
        decided,
        violations,
        divergences,
    };
    source.into_pass(setup, start, served, &noise)
}

/// Runs one engine workload for `opts.seconds`.
pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    match kind {
        Kind::FailureFree => run_with(&A1, kind, opts),
        Kind::Chaos => run_with(&CtRounds, kind, opts),
    }
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn run_with<A>(algo: &A, kind: Kind, opts: &Opts) -> Outcome
where
    A: RoundAlgorithm<Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    let mut gates = Gates::default();
    let mut metrics = Metrics::new();
    let mut detail = Vec::new();
    let began = Instant::now();

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Spans)> = Vec::new();
    while passes.is_empty() || began.elapsed() < opts.seconds {
        // Each pass draws fresh inputs and fault plans from the seed.
        let seed = instance_seed(opts.seed, passes.len() as u64);
        let pass = serve_pass(algo, kind, seed);
        pass.gate(kind, &mut gates, &format!("pass {}", passes.len()));
        passes.push(pass);
        if opts.trace {
            let mut spans = Spans::default();
            let t = traced_pass(algo, kind, seed, &mut spans);
            t.gate(kind, &mut gates, &format!("traced pass {}", traced.len()));
            let u = passes.last().expect("just pushed");
            gates.check((t.served, t.acked()) == (u.served, u.acked()), || {
                format!(
                    "traced pass reproduced digest {:#x} / {} decided / {} acked, \
                         untraced {:#x} / {} / {}",
                    t.served.digest,
                    t.served.decided,
                    t.acked(),
                    u.served.digest,
                    u.served.decided,
                    u.acked()
                )
            });
            traced.push((t, spans));
        }
    }

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let acked: u64 = passes.iter().map(Pass::acked).sum();
    let doubles: u64 = passes.iter().map(|p| p.double_acks).sum();
    detail.push(format!(
        "passes {} ({} traced), ack samples {acked} ({} per pass), pass 0: digest {:#018x}, \
         {} decided instances",
        passes.len(),
        traced.len(),
        passes[0].acked(),
        passes[0].served.digest,
        passes[0].served.decided
    ));

    if opts.trace {
        // Traced pass `i` replays untraced pass `i`; the pairs with the
        // least host steal over both give the per-layer figures.
        let pairs: Vec<usize> = (0..traced.len()).collect();
        let quiet = quietest(&pairs, |&i| passes[i].steal_per_s + traced[i].0.steal_per_s);
        let mut spans = Spans::default();
        let mut overheads = Vec::new();
        let (mut cpu, mut wall, mut traced_acked) = (0.0, 0.0, 0);
        for &&i in &quiet {
            let (untraced, (t, _)) = (&passes[i], &traced[i]);
            overheads.push(t.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0);
            cpu += untraced.cpu_s;
            wall += untraced.wall.as_secs_f64();
            traced_acked += t.acked();
        }
        for &&i in &quiet {
            spans.absorb(std::mem::take(&mut traced[i].1));
        }
        spans.insert_runtime(&mut metrics);
        metrics.insert("runtime.busy_share", cpu / (wall * nproc() as f64));
        metrics.insert(
            "lab.audit_tail_ms",
            quiet_median(&passes, |p| p.steal_per_s, |p| ms(p.audit_tail)),
        );
        metrics.insert("engine.propose_us_p50", median(&spans.propose_us));
        metrics.insert("engine.commit_apply_us_p50", median(&spans.commit_apply_us));
        metrics.insert("engine.queue_wait_ms_p50", median(&spans.queue_wait_ms));
        metrics.insert(
            "engine.batch_fill",
            ratio(spans.decided_cmds, spans.decided_batches) / BATCH_MAX as f64,
        );
        metrics.insert(
            "engine.reproposed_share",
            ratio(spans.reproposed, traced_acked),
        );
        metrics.insert("trace.overhead_share", median(&overheads));
        detail.push(format!(
            "tracing: {} of {} pass pairs (least steal), {} instances traced; traced pass \
             {:+.1}% wall against its untraced pass (median)",
            quiet.len(),
            traced.len(),
            spans.instances,
            median(&overheads) * 100.0
        ));
    } else {
        let quiet = |f: &dyn Fn(&Pass) -> f64| quiet_median(&passes, |p| p.steal_per_s, f);
        let quiet_acks = || {
            quietest(&passes, |p| p.steal_per_s)
                .into_iter()
                .map(|p| &p.acks)
        };
        metrics.insert("setup_s", quiet(&|p| p.setup.as_secs_f64()));
        metrics.insert("ack_p50_ms", pooled(quiet_acks(), 0.5));
        metrics.insert("ack_p99_ms", quiet(&|p| p.acks.p99_ms));
        metrics.insert("acked_per_s", quiet(&Pass::acked_per_s));
        metrics.insert(
            "acked_share",
            ratio(acked.saturating_sub(doubles), attempted),
        );
        metrics.insert("ack_rounds_p50", rounds_p50(passes.iter().map(|p| &p.acks)));
        metrics.insert("peak_rss_mb", crate::stats::peak_rss_mb());
    }

    Outcome {
        attempted,
        failed: attempted.saturating_sub(acked) + doubles,
        gates,
        metrics,
        detail,
    }
}
