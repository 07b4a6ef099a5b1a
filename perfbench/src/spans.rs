//! Spans and counters the traced runs record around calls into each
//! layer's public functions.

use std::time::Duration;

use ssp_runtime::ThreadedOutcome;

use crate::stats::{median, ms, percentile, ratio};
use crate::Metrics;

/// Span durations (one entry per call) and per-instance counters of
/// one traced pass or batch.
#[derive(Default)]
pub struct Spans {
    pub instance_ms: Vec<f64>,
    pub rounds_us: Vec<f64>,
    pub audit_ms: Vec<f64>,
    pub propose_us: Vec<f64>,
    pub commit_apply_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub instances: u64,
    pub wires: u64,
    pub retransmits: u64,
    pub delivered: u64,
    pub pending: u64,
    pub sim: Duration,
    pub decided_cmds: u64,
    pub decided_batches: u64,
    pub reproposed: u64,
}

impl Spans {
    /// Counts one runtime instance's network figures and simulated time.
    pub fn count_instance<V, M>(&mut self, result: &ThreadedOutcome<V, M>) {
        self.instances += 1;
        self.wires += result.net.wires;
        self.retransmits += result.net.retransmits;
        self.delivered += result.net.delivered;
        self.pending += result.pending_messages;
        self.sim += result.elapsed;
    }

    /// Pools another pass's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        self.instance_ms.extend(other.instance_ms);
        self.rounds_us.extend(other.rounds_us);
        self.audit_ms.extend(other.audit_ms);
        self.propose_us.extend(other.propose_us);
        self.commit_apply_us.extend(other.commit_apply_us);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.instances += other.instances;
        self.wires += other.wires;
        self.retransmits += other.retransmits;
        self.delivered += other.delivered;
        self.pending += other.pending;
        self.sim += other.sim;
        self.decided_cmds += other.decided_cmds;
        self.decided_batches += other.decided_batches;
        self.reproposed += other.reproposed;
    }

    /// The `runtime.*`, `rounds.*` and `lab.audit_ms_p50` metrics.
    #[allow(clippy::cast_precision_loss)]
    pub fn insert_runtime(&self, metrics: &mut Metrics) {
        let n = self.instances;
        let instance_p50 = median(&self.instance_ms);
        let rounds_p50 = median(&self.rounds_us);
        metrics.insert("runtime.instance_ms_p50", instance_p50);
        metrics.insert(
            "runtime.instance_ms_p99",
            percentile(&self.instance_ms, 0.99),
        );
        metrics.insert("runtime.wires_per_instance", ratio(self.wires, n));
        metrics.insert(
            "runtime.retransmits_per_instance",
            ratio(self.retransmits, n),
        );
        metrics.insert(
            "runtime.delivered_per_wire",
            ratio(self.delivered, self.wires),
        );
        metrics.insert("runtime.pending_per_instance", ratio(self.pending, n));
        metrics.insert(
            "runtime.sim_ms_per_instance",
            ms(self.sim) / n.max(1) as f64,
        );
        metrics.insert("rounds.run_us_p50", rounds_p50);
        metrics.insert(
            "rounds.runtime_over_rounds",
            instance_p50 * 1e3 / rounds_p50.max(1e-9),
        );
        metrics.insert("lab.audit_ms_p50", median(&self.audit_ms));
    }
}
