//! Serving benchmark for the spinwave-parallel workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rtt_serial|stream_skewed|circuit_pipelined> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs against the shipped defaults
//! (`ServeConfig::default()`, `NetServerConfig::default()`,
//! `NetClientConfig::default()`, `CompilerConfig::default()`) as a
//! closed loop with one caller thread, and checks every reply against a
//! reference computed at set-up (`ParallelGate::evaluate` for gates,
//! `Circuit::evaluate_batch` for the circuit).
//!
//! A run sets the whole stack up [`REPEATS`] times; each set-up is timed
//! (`setup_s` is their median) and then measured for its share of the
//! window, cut into [`measure::CHUNKS`] chunks. Rates and latency
//! percentiles are medians over chunks; context switches and CPU per
//! set are ratios of sums.
//!
//! * `--trace 0` reports the end-to-end metrics.
//! * `--trace 1` also alternates untraced and traced slices on the last
//!   stack (spans recorded around each call into a layer, from this
//!   crate's side) and runs per-layer probe ops; it reports the
//!   per-layer metrics, a self-time table and the tracing overhead, and
//!   writes the spans to `perfbench/out/`.
//!
//! Every run records its host and build facts (CPU count, profile, git
//! commit, rustc, seed) in `perfbench/out/result-*.json`; figures
//! compare only between runs on the same CPU count.
//!
//! A human-readable report goes to standard output, then, as its last
//! line, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. A run whose replies or counter identities do not check
//! out reports `"correct": false` and exits with code 1.

mod circuit;
mod gates;
mod measure;
mod report;

use measure::Pct;
use report::{Metric, Run};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Set-ups per run, each followed by its share of the untraced
/// window; `setup_s` is their median.
pub const REPEATS: usize = 10;

const WORKLOADS: [&str; 3] = ["rtt_serial", "stream_skewed", "circuit_pipelined"];

/// The per-layer metrics a traced run reports on every workload (a
/// figure a workload has no layer for reads 0).
const PER_LAYER: [(&str, &str); 48] = [
    ("window.op_p99_us", "us"),
    ("window.cpu_us_per_set", "us"),
    ("window.op_samples", "count"),
    ("core.eval_logic_us", "us"),
    ("core.lut_hit_rate", "ratio"),
    ("core.lut_lookups", "count"),
    ("core.lut_dense_rows", "count"),
    ("serve.inproc_op_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.requests", "count"),
    ("serve.drain_passes", "count"),
    ("serve.mean_drain", "requests"),
    ("serve.batches_per_drain", "batches"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.linger_us.shard0", "us"),
    ("serve.linger_us.shard1", "us"),
    ("serve.fused_ratio", "ratio"),
    ("serve.fdm_ratio", "ratio"),
    ("serve.drain_skew", "ratio"),
    ("net.client_submit_us", "us"),
    ("net.client_wait_us", "us"),
    ("net.wire_overhead_us", "us"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.server_submits", "count"),
    ("net.retry_after_ratio", "ratio"),
    ("net.timeouts", "count"),
    ("net.request_errors", "count"),
    ("net.client_retries", "count"),
    ("net.useful_ratio", "ratio"),
    ("pipeline.reference_us", "us"),
    ("pipeline.overhead_us", "us"),
    ("pipeline.peak_in_flight", "requests"),
    ("pipeline.sets_dispatched", "count"),
    ("compiler.compile_ms", "ms"),
    ("setup.warm_ms", "ms"),
    ("setup.bind_connect_ms", "ms"),
    ("setup.reference_ms", "ms"),
    ("trace.overhead_pct.op_p50_us", "%"),
    ("trace.overhead_pct.op_p90_us", "%"),
    ("trace.overhead_pct.sets_per_s", "%"),
    ("trace.overhead_pct.cpu_us_per_set", "%"),
    ("trace.self_us.net", "us"),
    ("trace.self_us.serve", "us"),
    ("trace.self_us.core", "us"),
    ("trace.self_us.pipeline", "us"),
    ("trace.self_us.circuits", "us"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// How `--seconds` is spent: untraced, all of it goes to the repeats'
/// windows. Traced, 2/5 goes to the repeats, 2/5 to interleaved
/// untraced/traced pairs (the returned length) and 1/5 to the probes.
pub fn windows(args: &Args) -> (Duration, Option<Duration>) {
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        (total * 2 / 5, Some(total * 2 / 5))
    } else {
        (total, None)
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit the checkout was built from, when it is a git checkout.
/// git looks no higher than the checkout's root for the repository.
fn git_commit() -> String {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let above_root = manifest.parent().and_then(|root| root.parent());
    let mut git = std::process::Command::new("git");
    if let Some(dir) = above_root {
        git.env("GIT_CEILING_DIRECTORIES", dir);
    }
    git.args(["rev-parse", "HEAD"])
        .current_dir(manifest)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn metadata(args: &Args, run: &Run) -> Vec<(String, String)> {
    let mut meta = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("git_commit".into(), git_commit()),
        ("rustc".into(), rustc_version()),
    ];
    meta.extend(run.config.iter().cloned());
    meta
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let w = &run.window;
    vec![
        report::metric("setup_s", run.median_setup(|s| s.total_s), "s"),
        report::metric("sets_per_s", w.sets_per_s(), "sets/s"),
        report::metric("op_p50_us", w.op_percentile_us(Pct::P50), "us"),
        report::metric("op_p90_us", w.op_percentile_us(Pct::P90), "us"),
        report::metric("switches_per_set", w.switches_per_set(), "switches/set"),
        report::metric("peak_rss_mib", measure::peak_rss_mib(), "MiB"),
        report::metric(
            "ok_ratio",
            1.0 - w.failed as f64 / w.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let mut found: Vec<Metric> = run.layer.iter().chain(&run.shape).cloned().collect();
    // p99 of the untraced window: too unsteady on small shared hosts to
    // bound as an end-to-end metric, so it is reported here.
    found.push(report::metric(
        "window.op_p99_us",
        run.window.op_percentile_us(Pct::P99),
        "us",
    ));
    // CPU per set follows the host's speed, which drifts by a quarter
    // and more between rounds on small shared hosts; the end-to-end
    // cost of poll loops is `switches_per_set`, a count.
    found.push(report::metric(
        "window.cpu_us_per_set",
        run.window.cpu_us_per_set(),
        "us",
    ));
    found.push(report::metric(
        "window.op_samples",
        run.window.samples() as f64,
        "count",
    ));
    let setup = |f: fn(&report::Setup) -> f64| run.median_setup(f);
    found.push(report::metric(
        "compiler.compile_ms",
        setup(|s| s.compile_ms),
        "ms",
    ));
    found.push(report::metric("setup.warm_ms", setup(|s| s.warm_ms), "ms"));
    found.push(report::metric(
        "setup.bind_connect_ms",
        setup(|s| s.bind_connect_ms),
        "ms",
    ));
    found.push(report::metric(
        "setup.reference_ms",
        setup(|s| s.reference_ms),
        "ms",
    ));
    if let Some((u, t)) = &run.paired {
        let pct = |untraced: f64, traced: f64| (traced - untraced) / untraced * 100.0;
        found.push(report::metric(
            "trace.overhead_pct.op_p50_us",
            pct(u.op_percentile_us(Pct::P50), t.op_percentile_us(Pct::P50)),
            "%",
        ));
        found.push(report::metric(
            "trace.overhead_pct.op_p90_us",
            pct(u.op_percentile_us(Pct::P90), t.op_percentile_us(Pct::P90)),
            "%",
        ));
        // Throughput falls when tracing costs, so the sign flips.
        found.push(report::metric(
            "trace.overhead_pct.sets_per_s",
            -pct(u.sets_per_s(), t.sets_per_s()),
            "%",
        ));
        found.push(report::metric(
            "trace.overhead_pct.cpu_us_per_set",
            pct(u.cpu_us_per_set(), t.cpu_us_per_set()),
            "%",
        ));
    }
    // A layer reached from several kinds of root span (net: the traced
    // op's client calls and the probe's frame coding) sums their
    // per-root means.
    for t in run.tracer.self_time() {
        let name = format!("trace.self_us.{}", t.layer);
        match found.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value += t.per_root_us(),
            None => found.push(report::metric(name, t.per_root_us(), "us")),
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = found
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            report::metric(name, if value.is_finite() { value } else { 0.0 }, unit)
        })
        .collect()
}

fn print_report(args: &Args, run: &Run, metrics: &[Metric], meta: &[(String, String)]) {
    println!(
        "== perfbench {} (seed {}, trace {}) ==",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in meta {
        println!("  {k}: {v}");
    }
    let w = &run.window;
    println!(
        "window: {:.2} s in {} chunks, {} ops attempted, {} failed (failed_ratio {:.6}), {} latency samples, {} set-ups",
        w.wall_s(),
        w.chunks.len(),
        w.attempted,
        w.failed,
        w.failed as f64 / w.attempted.max(1) as f64,
        w.samples(),
        run.setups.len()
    );
    println!(
        "op latency over {} samples: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
        w.samples(),
        w.op_percentile_us(Pct::P50),
        w.op_percentile_us(Pct::P90),
        w.op_percentile_us(Pct::P99)
    );
    println!(
        "{:>6} {:>8} {:>14} {:>12} {:>12} {:>14} {:>14}",
        "chunk", "ops", "sets/s", "p50_us", "p99_us", "cpu_us/set", "switches/set"
    );
    for (i, c) in w.chunks.iter().enumerate() {
        println!(
            "{i:>6} {:>8} {:>14.1} {:>12.1} {:>12.1} {:>14.3} {:>14.3}",
            c.ops,
            c.good_sets as f64 / c.wall_s,
            c.percentile(Pct::P50),
            c.percentile(Pct::P99),
            c.cpu_us / c.good_sets.max(1) as f64,
            c.switches as f64 / c.good_sets.max(1) as f64
        );
    }
    if let Some((p, t)) = &run.paired {
        println!(
            "overhead pairs: untraced {:.2} s, {} ops, p50 {:.1} us; traced {:.2} s, {} ops, p50 {:.1} us; {} failed",
            p.wall_s(),
            p.attempted,
            p.op_percentile_us(Pct::P50),
            t.wall_s(),
            t.attempted,
            t.op_percentile_us(Pct::P50),
            p.failed + t.failed
        );
        println!("probes: {} ops, {} failed", run.probe_ops, run.probe_failed);
    }
    println!("{:<40} {:>16} unit", "metric", "value");
    for m in metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        println!("per-layer self time (spans from the benchmark's side of each layer):");
        println!(
            "{:<8} {:<10} {:>14} {:>10} {:>14}",
            "root", "layer", "self_us", "roots", "self_us/root"
        );
        for t in run.tracer.self_time() {
            println!(
                "{:<8} {:<10} {:>14.1} {:>10} {:>14.3}",
                t.root,
                t.layer,
                t.total_us,
                t.roots,
                t.per_root_us()
            );
        }
    }
    for (title, checks) in [
        ("counter identities:", &run.checks),
        (
            "mechanism checks (describe the workload; not fatal):",
            &run.mechanisms,
        ),
    ] {
        println!("{title}");
        for c in checks {
            let mark = if c.ok { "ok" } else { "FAIL" };
            println!("  [{mark}] {} ({})", c.name, c.detail);
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Records the result with its host and build metadata, and the spans
/// of a traced run, under `perfbench/out/`.
fn write_outputs(
    args: &Args,
    run: &Run,
    line: &str,
    meta: &[(String, String)],
) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    // One file per workload and mode: the latest run overwrites it.
    let stem = format!("{}-trace{}", args.workload, u8::from(args.trace));
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let checks: Vec<String> = run
        .checks
        .iter()
        .chain(&run.mechanisms)
        .map(|c| format!("{}: {}", json_string(&c.name), c.ok))
        .collect();
    std::fs::write(
        dir.join(format!("result-{stem}.json")),
        format!(
            "{{\"meta\": {{{}}}, \"checks\": {{{}}}, \"result\": {line}}}\n",
            meta_json.join(", "),
            checks.join(", ")
        ),
    )?;
    if args.trace {
        run.tracer
            .write_jsonl(&dir.join(format!("spans-{stem}.jsonl")))?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "rtt_serial" => gates::run(gates::Kind::RttSerial, &args),
        "stream_skewed" => gates::run(gates::Kind::StreamSkewed, &args),
        _ => circuit::run(&args),
    };
    let run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    let meta = metadata(&args, &run);
    print_report(&args, &run, &metrics, &meta);

    let mut attempted = run.window.attempted;
    let mut failed = run.window.failed;
    if let Some((p, t)) = &run.paired {
        attempted += p.attempted + t.attempted + run.probe_ops;
        failed += p.failed + t.failed + run.probe_failed;
    }
    let correct = failed == 0 && run.checks.iter().all(|c| c.ok);
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    if let Err(e) = write_outputs(&args, &run, &line, &meta) {
        eprintln!("perfbench: could not write results: {e}");
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
