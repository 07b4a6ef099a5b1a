//! `cluster_gateway`: three A1 node processes over loopback TCP on the
//! real clock ([`run_cluster`] spawning the `ssp` binary), a gateway on
//! every node, no inter-instance pacing, and a closed loop of `nproc`
//! [`GatewayClient`] threads with one connection each.
//!
//! Set-up counts the wait until all three gateways accept, so the load
//! never starts against a closed port. Each pass uses its own ports and
//! report directory; [`run_cluster`] waits for (and so reaps) every
//! node process before it returns, on every path.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ssp_engine::{
    instance_seed, merge_reports, run_cluster, ClusterConfig, ClusterReport, GatewaySpec,
    NodeConfig,
};
use ssp_gateway::{load_op, ClientConfig, ClientStats, GatewayClient};
use ssp_runtime::TransportStats;

use crate::stats::{
    median, ms, nproc, pooled, quiet_median, quietest, ratio, rounds_p50, Acks, Noise,
};
use crate::{Gates, Metrics, Opts, Outcome};

const NODES: usize = 3;
/// Requests per pass, split evenly over the clients (a multiple of
/// `SEGMENT_PER_CLIENT` per client for up to four clients).
const REQUESTS: u64 = 1200;
/// First external client id.
const CLIENT_BASE: u64 = 1;
/// How long set-up may wait for the gateways to accept.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Closed-loop clients: one per logical CPU, at most four.
fn clients() -> u64 {
    nproc().clamp(1, 4) as u64
}

/// Instance budget of one pass. Each client has one request in flight
/// and every instance decides all admitted requests, so the load needs
/// at most `2 * REQUESTS / clients` instances. The nodes run unpaced
/// whether or not load arrives, so the rest covers the instances run
/// before the first admission and during host stalls of the load.
fn instance_budget() -> u64 {
    2 * REQUESTS / clients() + 2000
}

/// Three consecutive free loopback ports, probed by binding them. They
/// are drawn below Linux's default ephemeral range (32768–60999), so an
/// outgoing connection cannot take one before its node binds it.
fn free_port_run(hint: u64) -> Option<u16> {
    (0..200u64).find_map(|k| {
        let base = 10_000 + (hint.wrapping_add(k * 7919) % 20_000);
        let base = u16::try_from(base).ok()?;
        let held: Vec<TcpListener> = (0..NODES as u16)
            .map_while(|i| TcpListener::bind(("127.0.0.1", base + i)).ok())
            .collect();
        (held.len() == NODES).then_some(base)
    })
}

/// Waits until every gateway accepts a connection.
fn wait_accepting(targets: &[String], deadline: Instant) -> bool {
    targets.iter().all(|target| {
        let addr: SocketAddr = target.parse().expect("loopback address");
        loop {
            if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    })
}

/// Requests each client sends per segment. A pass's load is cut into
/// segments at barriers, so each segment's host steal is read on its
/// own and a short quiet window can be told from a stolen one.
const SEGMENT_PER_CLIENT: u64 = 50;

/// One client's share of a pass.
struct ClientRun {
    stats: ClientStats,
    /// `(latency ms, decision round)` per ack, per segment.
    segments: Vec<Vec<(f64, u32)>>,
    failed: u64,
    /// Highest instance that acknowledged one of this client's requests.
    last_instance: u64,
}

/// Once one request gives up, the rest of the client's script counts
/// as failed without being sent: a cluster that stopped serving fails
/// the pass quickly instead of waiting out every deadline.
fn client_loop(
    seed: u64,
    client_id: u64,
    segments: u64,
    targets: Vec<String>,
    barrier: &Barrier,
) -> ClientRun {
    let mut cfg = ClientConfig::new(client_id, targets);
    cfg.deadline = Duration::from_secs(5);
    let mut client = GatewayClient::new(cfg);
    let mut run = ClientRun {
        stats: ClientStats::default(),
        segments: Vec::new(),
        failed: 0,
        last_instance: 0,
    };
    for segment in 0..segments {
        let mut acks = Vec::new();
        barrier.wait();
        for req in segment * SEGMENT_PER_CLIENT..(segment + 1) * SEGMENT_PER_CLIENT {
            if run.failed > 0 {
                run.failed += 1;
                continue;
            }
            let start = Instant::now();
            match client.submit_req(req, &[load_op(seed, client_id, req)]) {
                Ok(ack) => {
                    acks.push((ms(start.elapsed()), ack.round));
                    run.last_instance = run.last_instance.max(ack.instance);
                }
                Err(_) => run.failed += 1,
            }
        }
        barrier.wait();
        run.segments.push(acks);
    }
    run.stats = client.stats;
    run
}

/// One load segment of all clients.
struct Segment {
    acks: Acks,
    wall: Duration,
    steal_per_s: f64,
}

struct Pass {
    setup: Duration,
    attempted: u64,
    acks: Acks,
    failed: u64,
    client: ClientStats,
    segments: Vec<Segment>,
    /// Last ack until `run_cluster` returned: the rest of the instance
    /// budget, the node exits, and the parent-side merge and audit.
    audit_tail: Duration,
    /// Whole pass, spawn to merged report.
    wall: Duration,
    /// A second, timed merge of the same node reports (traced run).
    merge: Option<Duration>,
    /// The merged report, reduced to what the gates and metrics read.
    report: Result<Merged, String>,
    instances: u64,
    /// Highest instance that acknowledged a client request.
    last_ack_instance: u64,
}

/// What a pass keeps of its [`ClusterReport`]; the logs and audits
/// themselves are dropped so the benchmark's memory does not grow with
/// the run.
struct Merged {
    audit_violations: u64,
    audit_divergences: u64,
    crashed_nodes: Vec<(usize, u64)>,
    digests_agree: bool,
    commands_decided: u64,
    seeded_decided: u64,
    transport: Option<TransportStats>,
}

impl Merged {
    fn of(r: &ClusterReport) -> Self {
        let s = &r.stats;
        Merged {
            audit_violations: s.audit_violations,
            audit_divergences: s.audit_divergences,
            crashed_nodes: r.crashed_nodes.clone(),
            digests_agree: r.node_digests.iter().all(|d| *d == Some(s.kv_digest)),
            commands_decided: s.commands_decided,
            seeded_decided: s.commands_submitted - s.pending_at_shutdown,
            transport: s.transport,
        }
    }
}

impl Pass {
    fn acked(&self) -> u64 {
        self.acks.count
    }

    fn gate(&self, gates: &mut Gates, what: &str) {
        gates.check(self.acked() == self.attempted && self.failed == 0, || {
            format!(
                "{what}: {} of {} acked, {} gave up",
                self.acked(),
                self.attempted,
                self.failed
            )
        });
        let p50 = rounds_p50(std::iter::once(&self.acks));
        gates.check(p50 == 1.0, || {
            format!("{what}: ack rounds p50 {p50}, expected 1")
        });
        match &self.report {
            Err(e) => gates.check(false, || format!("{what}: cluster failed: {e}")),
            Ok(m) => {
                gates.check(m.audit_violations == 0 && m.audit_divergences == 0, || {
                    format!(
                        "{what}: {} audit violations, {} divergences",
                        m.audit_violations, m.audit_divergences
                    )
                });
                gates.check(m.crashed_nodes.is_empty(), || {
                    format!("{what}: nodes crashed: {:?}", m.crashed_nodes)
                });
                gates.check(m.digests_agree, || {
                    format!("{what}: replicas disagree on the store digest")
                });
                // Exactly once at the store: every decided command is a
                // seed-workload command or one acked client request.
                gates.check(
                    m.commands_decided == m.seeded_decided + self.acked(),
                    || {
                        format!(
                            "{what}: {} commands decided, {} seeded + {} acked",
                            m.commands_decided,
                            m.seeded_decided,
                            self.acked()
                        )
                    },
                );
            }
        }
    }
}

fn pass(opts: &Opts, index: u64, timed_merge: bool) -> Pass {
    let t0 = Instant::now();
    let dir: PathBuf = opts
        .work_dir
        .join(format!("cluster-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hint = u64::from(std::process::id()) * 31 + index * 3 + opts.seed;
    let base = free_port_run(hint).expect("three free loopback ports");
    let targets: Vec<String> = (0..NODES as u16)
        .map(|i| format!("127.0.0.1:{}", base + i))
        .collect();
    // Each pass draws a fresh cluster seed and client script.
    let seed = instance_seed(opts.seed, index);
    let mut node = NodeConfig::new(0, NODES, String::new(), Vec::new(), seed);
    node.instances = instance_budget();
    node.clients = 1;
    let cfg = ClusterConfig {
        node,
        kill: None,
        proxy: None,
        gateway: Some(GatewaySpec {
            base_port: base,
            queue_cap: 64,
        }),
    };
    let clients = clients();
    let segments = REQUESTS / clients / SEGMENT_PER_CLIENT;
    let barrier = Barrier::new(usize::try_from(clients).expect("few clients") + 1);

    let (setup, runs, windows, report, returned) = std::thread::scope(|s| {
        let load = s.spawn(|| {
            let ready = wait_accepting(&targets, Instant::now() + READY_TIMEOUT);
            let setup = t0.elapsed();
            let mut windows = Vec::new();
            let mut runs = Vec::new();
            if ready {
                let barrier = &barrier;
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let targets = targets.clone();
                        s.spawn(move || {
                            client_loop(seed, CLIENT_BASE + c, segments, targets, barrier)
                        })
                    })
                    .collect();
                for _ in 0..segments {
                    let noise = Noise::start();
                    let start = Instant::now();
                    barrier.wait();
                    barrier.wait();
                    windows.push((start.elapsed(), noise.steal_per_s(), Instant::now()));
                }
                runs = handles
                    .into_iter()
                    .map(|h| h.join().expect("load client panicked"))
                    .collect();
            }
            (setup, runs, windows)
        });
        // The merge inside `run_cluster` runs on this thread, so its
        // memory comes from the same allocator arena on every pass.
        let report = run_cluster(&opts.ssp_bin, &cfg, &dir).map_err(|e| e.to_string());
        let returned = Instant::now();
        let (setup, runs, windows) = load.join().expect("load thread panicked");
        (setup, runs, windows, report, returned)
    });

    let merge = if timed_merge {
        let t = Instant::now();
        let reports: Vec<String> = (0..NODES)
            .map(|i| std::fs::read_to_string(dir.join(format!("node{i}.log"))).unwrap_or_default())
            .collect();
        let merged = merge_reports(&cfg.node, &reports);
        let took = t.elapsed();
        std::hint::black_box(merged.is_ok());
        Some(took)
    } else {
        None
    };
    remove_dir(&dir);

    let mut client = ClientStats::default();
    let mut acks = Vec::new();
    let mut failed = 0;
    let segments: Vec<Segment> = windows
        .iter()
        .enumerate()
        .map(|(k, (wall, steal_per_s, _))| {
            let samples: Vec<(f64, u32)> = runs
                .iter()
                .flat_map(|r| r.segments[k].iter().copied())
                .collect();
            Segment {
                acks: Acks::of(&samples),
                wall: *wall,
                steal_per_s: *steal_per_s,
            }
        })
        .collect();
    for run in &runs {
        let s = run.stats;
        client.submitted += s.submitted;
        client.acked += s.acked;
        client.resubmissions += s.resubmissions;
        client.busy += s.busy;
        client.redirects += s.redirects;
        client.reconnects += s.reconnects;
        client.gave_up += s.gave_up;
        for segment in &run.segments {
            acks.extend_from_slice(segment);
        }
        failed += run.failed;
    }
    let last = windows.last().map(|w| w.2);
    let attempted = segments.len() as u64 * SEGMENT_PER_CLIENT * clients;
    Pass {
        setup,
        attempted,
        failed: failed + attempted.saturating_sub(acks.len() as u64 + failed),
        acks: Acks::of(&acks),
        client,
        segments,
        audit_tail: last.map_or(Duration::ZERO, |l| returned.saturating_duration_since(l)),
        wall: returned - t0,
        merge,
        instances: report.as_ref().map_or(0, |r| r.stats.instances),
        last_ack_instance: runs.iter().map(|r| r.last_instance).max().unwrap_or(0),
        report: report.as_ref().map(Merged::of).map_err(Clone::clone),
    }
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run(opts: &Opts) -> Outcome {
    let mut gates = Gates::default();
    let mut metrics = Metrics::new();
    let mut detail = Vec::new();
    let began = Instant::now();
    let noise = Noise::start();

    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || began.elapsed() < opts.seconds {
        let p = pass(opts, passes.len() as u64, opts.trace);
        p.gate(&mut gates, &format!("pass {}", passes.len()));
        passes.push(p);
    }
    let busy_share = noise.busy_share();

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let acked: u64 = passes.iter().map(Pass::acked).sum();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    detail.push(format!(
        "passes {}: {} clients x {} requests, ack samples {acked}; last ack at instance {} \
         at most, of a budget of {}",
        passes.len(),
        clients(),
        REQUESTS / clients(),
        passes
            .iter()
            .map(|p| p.last_ack_instance)
            .max()
            .unwrap_or(0),
        instance_budget()
    ));

    if opts.trace {
        let n = passes.len() as f64;
        let sum = |f: &dyn Fn(&Pass) -> u64| passes.iter().map(f).sum::<u64>();
        let transport = |f: &dyn Fn(&TransportStats) -> u64| {
            sum(&|p| {
                p.report
                    .as_ref()
                    .ok()
                    .and_then(|m| m.transport)
                    .map_or(0, |t| f(&t))
            })
        };
        metrics.insert("runtime.busy_share", busy_share);
        metrics.insert(
            "lab.audit_ms_p50",
            per_pass(&|p| ms(p.merge.unwrap_or_default()) / p.instances.max(1) as f64),
        );
        metrics.insert("lab.audit_tail_ms", per_pass(&|p| ms(p.audit_tail)));
        metrics.insert(
            "gateway.resubmits_per_req",
            ratio(sum(&|p| p.client.resubmissions), attempted),
        );
        metrics.insert(
            "gateway.busy_per_req",
            ratio(sum(&|p| p.client.busy), attempted),
        );
        metrics.insert(
            "gateway.redirects_per_req",
            ratio(sum(&|p| p.client.redirects), attempted),
        );
        metrics.insert(
            "gateway.reconnects",
            sum(&|p| p.client.reconnects) as f64 / n,
        );
        metrics.insert(
            "transport.frames_per_ack",
            ratio(transport(&|t| t.delivered + t.retransmits), acked),
        );
        metrics.insert(
            "transport.retransmits",
            transport(&|t| t.retransmits) as f64 / n,
        );
        metrics.insert(
            "transport.backoff_ms",
            transport(&|t| t.backoff_micros) as f64 / 1e3 / n,
        );
        let wall = per_pass(&|p| p.wall.as_secs_f64());
        let merged = per_pass(&|p| p.merge.unwrap_or_default().as_secs_f64());
        metrics.insert("trace.overhead_share", merged / wall);
    } else {
        let segments: Vec<&Segment> = passes.iter().flat_map(|p| &p.segments).collect();
        let quiet = |f: &dyn Fn(&&Segment) -> f64| quiet_median(&segments, |s| s.steal_per_s, f);
        metrics.insert("setup_s", per_pass(&|p| p.setup.as_secs_f64()));
        let quiet_acks = quietest(&segments, |s| s.steal_per_s)
            .into_iter()
            .map(|s| &s.acks);
        metrics.insert("ack_p50_ms", pooled(quiet_acks, 0.5));
        metrics.insert("ack_p99_ms", quiet(&|s| s.acks.p99_ms));
        metrics.insert(
            "acked_per_s",
            quiet(&|s| s.acks.count as f64 / s.wall.as_secs_f64().max(1e-9)),
        );
        metrics.insert("acked_share", ratio(acked, attempted));
        metrics.insert("ack_rounds_p50", rounds_p50(passes.iter().map(|p| &p.acks)));
        metrics.insert("peak_rss_mb", crate::stats::peak_rss_mb());
    }

    Outcome {
        attempted,
        failed: attempted.saturating_sub(acked),
        gates,
        metrics,
        detail,
    }
}
