//! What a workload hands back, and the counter arithmetic every
//! workload shares: window deltas of the runtime's stats, the
//! identities that must hold at quiescence, and the mechanism checks.

use crate::measure::{median, Tracer, Window};
use magnon_net::{NetClientStats, NetServerStats};
use magnon_serve::{Scheduler, SchedulerStats, TelemetrySnapshot};
use std::time::{Duration, Instant};

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A named pass/fail assertion with the figures behind it.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

/// Folds one repeat's checks into the run's: a check holds only if it
/// held on every repeat, and a failure keeps the failing figures.
pub fn merge_checks(into: &mut Vec<Check>, new: Vec<Check>) {
    for c in new {
        match into.iter_mut().find(|old| old.name == c.name) {
            Some(old) if old.ok => *old = c,
            Some(_) => {}
            None => into.push(c),
        }
    }
}

/// Timings of one set-up, by phase.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    pub total_s: f64,
    pub compile_ms: f64,
    pub bind_connect_ms: f64,
    pub reference_ms: f64,
    pub warm_ms: f64,
}

/// Everything one workload run measured.
pub struct Run {
    pub setups: Vec<Setup>,
    /// The repeats' untraced windows: the end-to-end figures.
    pub window: Window,
    /// Traced runs: untraced and traced slices of the same loop,
    /// interleaved on the last stack (see `measure::paired_windows`).
    pub paired: Option<(Window, Window)>,
    /// Per-layer probe ops run and how many of them answered wrong.
    pub probe_ops: u64,
    pub probe_failed: u64,
    /// Workload-specific per-layer figures (traced runs only).
    pub layer: Vec<Metric>,
    /// Drain-shape and counter figures: over the paired slices in a
    /// traced run, else over the last repeat's window.
    pub shape: Vec<Metric>,
    /// Counter identities at quiescence; any failure fails the run.
    pub checks: Vec<Check>,
    /// Whether the workload exercised or bypassed each mechanism as
    /// designed. Reported, not fatal: they describe the workload.
    pub mechanisms: Vec<Check>,
    pub tracer: Tracer,
    /// Configuration facts recorded with the result.
    pub config: Vec<(String, String)>,
}

impl Run {
    pub fn median_setup(&self, field: impl Fn(&Setup) -> f64) -> f64 {
        median(&self.setups.iter().map(field).collect::<Vec<_>>())
    }
}

/// The runtime's counters at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    pub sched: SchedulerStats,
    pub tele: TelemetrySnapshot,
    pub server: NetServerStats,
    pub client: NetClientStats,
}

impl Counters {
    pub fn of(scheduler: &Scheduler) -> Self {
        Counters {
            sched: scheduler.stats(),
            tele: scheduler.telemetry(),
            server: NetServerStats::default(),
            client: NetClientStats::default(),
        }
    }

    pub fn with_net(mut self, server: NetServerStats, client: NetClientStats) -> Self {
        self.server = server;
        self.client = client;
        self
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Drain-shape, LUT and net counter figures between two snapshots.
pub fn window_shape(before: &Counters, after: &Counters) -> Vec<Metric> {
    let (s0, s1) = (&before.sched, &after.sched);
    let requests = (s1.completed + s1.failed) - (s0.completed + s0.failed);
    let drains = s1.drain_passes - s0.drain_passes;
    let drained: Vec<u64> = after
        .tele
        .shards
        .iter()
        .zip(&before.tele.shards)
        .map(|(a, b)| a.drained - b.drained)
        .collect();
    let mean_drained = drained.iter().sum::<u64>() as f64 / drained.len().max(1) as f64;
    let max_drained = drained.iter().copied().max().unwrap_or(0) as f64;
    let lut = |t: &TelemetrySnapshot| {
        t.shards.iter().fold((0, 0, 0), |acc, s| {
            (
                acc.0 + s.lut_hits,
                acc.1 + s.lut_misses,
                acc.2 + s.lut_dense_rows,
            )
        })
    };
    let (h0, m0, _) = lut(&before.tele);
    let (h1, m1, dense) = lut(&after.tele);
    let lookups = (h1 + m1).saturating_sub(h0 + m0);
    let (n0, n1) = (&before.server, &after.server);
    let (c0, c1) = (&before.client, &after.client);
    let server_submits = n1.submits - n0.submits;
    let client_attempts = (c1.submitted + c1.retries) - (c0.submitted + c0.retries);
    let mut out = vec![
        metric(
            "core.lut_hit_rate",
            if lookups == 0 {
                1.0
            } else {
                ratio(h1.saturating_sub(h0), lookups)
            },
            "ratio",
        ),
        metric("core.lut_lookups", lookups as f64, "count"),
        metric("core.lut_dense_rows", dense as f64, "count"),
        metric("serve.requests", requests as f64, "count"),
        metric("serve.drain_passes", drains as f64, "count"),
        metric("serve.mean_drain", ratio(requests, drains), "requests"),
        metric(
            "serve.batches_per_drain",
            ratio(s1.batches - s0.batches, drains),
            "batches",
        ),
        metric(
            "serve.coalesced_ratio",
            ratio(s1.coalesced_requests - s0.coalesced_requests, requests),
            "ratio",
        ),
        metric(
            "serve.fused_ratio",
            ratio(s1.fused_requests - s0.fused_requests, requests),
            "ratio",
        ),
        metric(
            "serve.fdm_ratio",
            ratio(s1.fdm_requests - s0.fdm_requests, requests),
            "ratio",
        ),
        // Busiest shard's drained requests over the per-shard mean:
        // 1 is an even split, `workers` is everything on one shard.
        // (TelemetrySnapshot::drain_skew's max/min is infinite when a
        // shard idles, which a JSON number cannot carry.)
        metric(
            "serve.drain_skew",
            if mean_drained > 0.0 {
                max_drained / mean_drained
            } else {
                1.0
            },
            "ratio",
        ),
        metric("net.server_submits", server_submits as f64, "count"),
        metric(
            "net.retry_after_ratio",
            ratio(n1.retry_afters - n0.retry_afters, server_submits),
            "ratio",
        ),
        metric("net.timeouts", (n1.timeouts - n0.timeouts) as f64, "count"),
        metric(
            "net.request_errors",
            (n1.request_errors - n0.request_errors) as f64,
            "count",
        ),
        metric(
            "net.client_retries",
            (c1.retries - c0.retries) as f64,
            "count",
        ),
        metric(
            "net.useful_ratio",
            if client_attempts == 0 {
                0.0
            } else {
                ratio(c1.responses - c0.responses, client_attempts)
            },
            "ratio",
        ),
    ];
    for (i, shard) in after.tele.shards.iter().enumerate() {
        out.push(metric(
            format!("serve.linger_us.shard{i}"),
            shard.linger.as_secs_f64() * 1e6,
            "us",
        ));
    }
    out
}

pub fn shape_value(shape: &[Metric], name: &str) -> f64 {
    shape
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Waits for the workers' post-drain bookkeeping to land: a drain
/// sends its replies before it bumps the drain-pass counter, so a
/// caller holding every reply can still see the last pass uncounted.
pub fn settle(scheduler: &Scheduler) -> Counters {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = Counters::of(scheduler);
        let cycles: u64 = now.tele.shards.iter().map(|s| s.drain_cycles).sum();
        if cycles == now.sched.drain_passes || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The scheduler identities that hold at quiescence (every ticket
/// redeemed), read off `crates/serve`:
///
/// * `submit`/`try_submit` bump `submitted` once per accepted job, and
///   every drained job bumps exactly one of `completed`/`failed`
///   before its reply goes out;
/// * `Telemetry::record_drain` adds each drain's size to its shard's
///   `drained` and one to `drain_cycles`, while
///   `SharedStats::record_drain` adds one to `drain_passes` per drain;
/// * the queue gauge rises on enqueue and falls by the drain size;
/// * every FDM pass is recorded in both the stats and the telemetry.
pub fn scheduler_identities(c: &Counters, expected_submits: u64) -> Vec<Check> {
    let s = &c.sched;
    let drained: u64 = c.tele.shards.iter().map(|t| t.drained).sum();
    let cycles: u64 = c.tele.shards.iter().map(|t| t.drain_cycles).sum();
    let queued: u64 = c.tele.shards.iter().map(|t| t.queued).sum();
    let fdm_passes: u64 = c.tele.shards.iter().map(|t| t.fdm_passes).sum();
    let fdm_lanes: u64 = c.tele.shards.iter().map(|t| t.fdm_lanes).sum();
    vec![
        check(
            "sched.submitted = completed + failed",
            s.submitted == s.completed + s.failed,
            format!("{} = {} + {}", s.submitted, s.completed, s.failed),
        ),
        check(
            "sched.submitted = requests the benchmark made",
            s.submitted == expected_submits,
            format!("{} vs {expected_submits}", s.submitted),
        ),
        check("sched.failed = 0", s.failed == 0, s.failed.to_string()),
        check(
            "sum(shard.drained) = completed + failed",
            drained == s.completed + s.failed,
            format!("{drained} vs {}", s.completed + s.failed),
        ),
        check(
            "sum(shard.drain_cycles) = drain_passes",
            cycles == s.drain_passes,
            format!("{cycles} vs {}", s.drain_passes),
        ),
        check("sum(shard.queued) = 0", queued == 0, queued.to_string()),
        check(
            "sum(shard.fdm_passes) = fdm_batches",
            fdm_passes == s.fdm_batches,
            format!("{fdm_passes} vs {}", s.fdm_batches),
        ),
        check(
            "sum(shard.fdm_lanes) = fdm_lanes",
            fdm_lanes == s.fdm_lanes,
            format!("{fdm_lanes} vs {}", s.fdm_lanes),
        ),
        check(
            "fused + fdm requests <= completed",
            s.fused_requests + s.fdm_requests <= s.completed,
            format!(
                "{} + {} vs {}",
                s.fused_requests, s.fdm_requests, s.completed
            ),
        ),
    ]
}

/// The net identities that hold once every client request resolved,
/// read off `crates/net`: the server reader counts every submit frame
/// and answers each with exactly one of a response, a request error, a
/// timeout or a retry-after; the client counts first attempts and
/// retries separately, and every retry is one more submit frame.
pub fn net_identities(c: &Counters, net_requests: u64) -> Vec<Check> {
    let (n, k) = (&c.server, &c.client);
    vec![
        check(
            "server.submits = responses + request_errors + timeouts + retry_afters",
            n.submits == n.responses + n.request_errors + n.timeouts + n.retry_afters,
            format!(
                "{} = {} + {} + {} + {}",
                n.submits, n.responses, n.request_errors, n.timeouts, n.retry_afters
            ),
        ),
        check(
            "client.submitted + client.retries = server.submits",
            k.submitted + k.retries == n.submits,
            format!("{} + {} vs {}", k.submitted, k.retries, n.submits),
        ),
        check(
            "client.responses = server.responses = requests the benchmark made",
            k.responses == n.responses && k.responses == net_requests,
            format!("{} / {} / {net_requests}", k.responses, n.responses),
        ),
        check(
            "no request errors, timeouts or remote errors",
            n.request_errors == 0 && n.timeouts == 0 && k.remote_errors == 0,
            format!(
                "{} / {} / {}",
                n.request_errors, n.timeouts, k.remote_errors
            ),
        ),
    ]
}

/// Checks that a workload used (`expect_used`) or bypassed each of the
/// serving mechanisms it was chosen for.
pub fn mechanism_checks(shape: &[Metric], expect_used: bool, single_drains: bool) -> Vec<Check> {
    let fused = shape_value(shape, "serve.fused_ratio");
    let fdm = shape_value(shape, "serve.fdm_ratio");
    let requests = shape_value(shape, "serve.requests");
    let mut out = if expect_used {
        vec![
            check(
                "fused_ratio > 0",
                fused > 0.0,
                format!("{fused:.4} of {requests} requests"),
            ),
            check(
                "fdm_ratio > 0",
                fdm > 0.0,
                format!("{fdm:.4} of {requests} requests"),
            ),
        ]
    } else {
        vec![
            check(
                "fused_ratio = 0",
                fused == 0.0,
                format!("{fused:.4} of {requests} requests"),
            ),
            check(
                "fdm_ratio = 0",
                fdm == 0.0,
                format!("{fdm:.4} of {requests} requests"),
            ),
        ]
    };
    if single_drains {
        let mean = shape_value(shape, "serve.mean_drain");
        out.push(check(
            "mean_drain ~ 1",
            mean < 1.05,
            format!("{mean:.4} requests per drain"),
        ));
    }
    out
}
