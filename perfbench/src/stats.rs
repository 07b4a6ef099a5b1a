//! Exact sample statistics and the per-run host noise record.
//!
//! Percentiles are nearest-rank over every recorded sample — no
//! histogram buckets — so a change smaller than 2× stays visible.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; 0 for
/// an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The across-pass rule. Every pass of a run does the same amount of
/// work, and host steal slows a pass in proportion to how much of it
/// was stolen, so a run keeps the passes with the least steal per
/// second: at least a quarter of them (at least one), plus every pass
/// tied with the last one kept — in a calm run, every pass without
/// steal. Steal is attributed per pass instead of averaged in.
pub fn quietest<T>(passes: &[T], steal_per_s: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut order: Vec<&T> = passes.iter().collect();
    order.sort_by(|a, b| steal_per_s(a).total_cmp(&steal_per_s(b)));
    let Some(&last) = order.get(passes.len().div_ceil(4).max(1) - 1) else {
        return order;
    };
    let cutoff = steal_per_s(last);
    order.retain(|p| steal_per_s(p) <= cutoff);
    order
}

/// Median of `f` over the quietest passes (see [`quietest`]).
pub fn quiet_median<T>(
    passes: &[T],
    steal_per_s: impl Fn(&T) -> f64,
    f: impl Fn(&T) -> f64,
) -> f64 {
    median(
        &quietest(passes, steal_per_s)
            .into_iter()
            .map(f)
            .collect::<Vec<_>>(),
    )
}

/// Client-observed summary of one pass. The raw samples are dropped
/// once summarized, so the benchmark's own memory does not grow with
/// the run.
#[derive(Clone, Default)]
pub struct Acks {
    pub count: u64,
    pub p99_ms: f64,
    /// Decision round → acknowledgements.
    pub rounds: BTreeMap<u32, u64>,
    /// Evenly spaced order statistics of the pass's latencies, at most
    /// [`KEPT`], for percentiles pooled over passes.
    kept: Vec<f32>,
}

/// Order statistics kept per pass for pooling.
const KEPT: usize = 64;

impl Acks {
    /// Summarizes `(latency ms, decision round)` samples.
    pub fn of(samples: &[(f64, u32)]) -> Self {
        let mut latencies: Vec<f64> = samples.iter().map(|s| s.0).collect();
        latencies.sort_by(f64::total_cmp);
        let mut rounds = BTreeMap::new();
        for s in samples {
            *rounds.entry(s.1).or_insert(0) += 1;
        }
        let stride = latencies.len().div_ceil(KEPT).max(1);
        #[allow(clippy::cast_possible_truncation)]
        let kept = latencies
            .iter()
            .skip(stride / 2)
            .step_by(stride)
            .map(|&x| x as f32)
            .collect();
        Acks {
            count: samples.len() as u64,
            p99_ms: percentile(&latencies, 0.99),
            rounds,
            kept,
        }
    }
}

/// Percentile `q` of the latencies of several passes pooled, from each
/// pass's kept order statistics.
pub fn pooled<'a>(passes: impl Iterator<Item = &'a Acks>, q: f64) -> f64 {
    let all: Vec<f64> = passes
        .flat_map(|a| a.kept.iter().map(|&x| f64::from(x)))
        .collect();
    percentile(&all, q)
}

/// Exact median decision round over every acknowledgement summarized
/// in `passes`.
#[allow(clippy::cast_precision_loss)]
pub fn rounds_p50<'a>(passes: impl Iterator<Item = &'a Acks>) -> f64 {
    let mut merged: BTreeMap<u32, u64> = BTreeMap::new();
    for acks in passes {
        for (round, n) in &acks.rounds {
            *merged.entry(*round).or_insert(0) += n;
        }
    }
    let total: u64 = merged.values().sum();
    let mut seen = 0;
    for (round, n) in merged {
        seen += n;
        if 2 * seen >= total {
            return f64::from(round);
        }
    }
    0.0
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was attempted.
#[allow(clippy::cast_precision_loss)]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host and process counters read at the start and end of a run, so an
/// outlier can be attributed (steal, a busy neighbour) instead of
/// averaged in.
pub struct Noise {
    started: Instant,
    host: Option<HostTicks>,
    cpu_ticks: Option<u64>,
}

#[derive(Clone, Copy)]
struct HostTicks {
    idle: u64,
    steal: u64,
}

/// `/proc/stat` aggregate line: `cpu user nice system idle iowait irq
/// softirq steal ...`, in clock ticks.
fn host_ticks() -> Option<HostTicks> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some(HostTicks {
        idle: *fields.get(3)?,
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// This process's user + system CPU time plus that of its reaped
/// children (`/proc/self/stat` fields 14–17), in clock ticks.
fn cpu_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    (14..=17)
        .map(|k| fields.get(k - 3)?.parse::<u64>().ok())
        .sum()
}

/// Clock ticks per second of `/proc` counters (`USER_HZ`, 100 on every
/// mainstream Linux configuration).
const TICKS_PER_SEC: f64 = 100.0;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

impl Noise {
    pub fn start() -> Self {
        Noise {
            started: Instant::now(),
            host: host_ticks(),
            cpu_ticks: cpu_ticks(),
        }
    }

    /// Process CPU seconds since [`Noise::start`] (children included
    /// once reaped).
    #[allow(clippy::cast_precision_loss)]
    pub fn cpu_s(&self) -> f64 {
        match (self.cpu_ticks, cpu_ticks()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / TICKS_PER_SEC,
            _ => 0.0,
        }
    }

    /// Host steal ticks per wall second since [`Noise::start`]: CPU time
    /// the hypervisor gave to another guest while this one wanted it.
    #[allow(clippy::cast_precision_loss)]
    pub fn steal_per_s(&self) -> f64 {
        match (self.host, host_ticks()) {
            (Some(a), Some(b)) => {
                b.steal.saturating_sub(a.steal) as f64
                    / self.started.elapsed().as_secs_f64().max(1e-9)
            }
            _ => 0.0,
        }
    }

    /// Process CPU time over (wall time × `nproc`) since the start.
    #[allow(clippy::cast_precision_loss)]
    pub fn busy_share(&self) -> f64 {
        let wall = self.started.elapsed().as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        self.cpu_s() / (wall * nproc() as f64)
    }

    /// One JSON object: `nproc`, host idle/steal ticks over the run, and
    /// process CPU seconds.
    pub fn to_json(&self) -> String {
        let (idle, steal) = match (self.host, host_ticks()) {
            (Some(a), Some(b)) => (
                b.idle.saturating_sub(a.idle),
                b.steal.saturating_sub(a.steal),
            ),
            _ => (0, 0),
        };
        format!(
            "{{\"nproc\":{},\"wall_s\":{:.6},\"host_idle_ticks\":{idle},\"host_steal_ticks\":{steal},\
             \"process_cpu_s\":{:.2}}}",
            nproc(),
            self.started.elapsed().as_secs_f64(),
            self.cpu_s()
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[allow(clippy::cast_precision_loss)]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quietest_quarter_by_steal() {
        let passes = [
            (5.0, 10.0),
            (0.0, 20.0),
            (1.0, 18.0),
            (0.0, 22.0),
            (9.0, 5.0),
        ];
        let quiet: Vec<f64> = quietest(&passes, |p| p.0).iter().map(|p| p.1).collect();
        assert_eq!(quiet, vec![20.0, 22.0]);
        assert_eq!(quiet_median(&passes, |p| p.0, |p| p.1), 20.0);
        assert_eq!(quietest(&passes[..1], |p| p.0).len(), 1);
    }
}
