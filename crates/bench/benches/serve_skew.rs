//! SKEW bench: static vs adaptive scheduling under hot-waveguide
//! traffic.
//!
//! The load is deliberately pathological: 80 % of 256 requests hammer
//! one hot waveguide, the rest round-robin over three background
//! waveguides — and all four waveguide ids are chosen so the *static*
//! hash placement puts them on the SAME shard of 2, pinning one worker
//! while the other idles (the skew failure mode the adaptive runtime
//! exists to fix; with raw-modulo routing any all-even id set on 2
//! workers behaved this way systematically).
//!
//! Two modes per width:
//!
//! * `static_hash` — [`AdaptiveConfig::off`]: fixed placement,
//!   per-gate batches;
//! * `adaptive` — rebalancing (review every 32 submissions) and
//!   cross-waveguide fusion on: co-tenant waveguides migrate off the
//!   hot shard, and background requests fuse across waveguides.
//!
//! Both modes use the same fixed 100 µs linger, so the comparison
//! isolates placement and fusion from the drain shape.
//!
//! The acceptance comparison is fewer drain cycles (bigger batches)
//! for `adaptive`, and a finite per-shard drain split where the static
//! placement leaves one shard at zero. Wall-clock on the 1-core
//! container mostly shows scheduling overhead — re-baseline on a
//! multi-core host before citing worker-scaling wins (see ROADMAP).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use magnon_bench::random_operand_sets;
use magnon_core::backend::{BackendChoice, OperandSet};
use magnon_core::gate::{ParallelGate, ParallelGateBuilder, WaveguideId};
use magnon_math::constants::GHZ;
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{AdaptiveConfig, GateId, Scheduler, SchedulerBuilder, ServeConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCH: usize = 256;
const WORKERS: usize = 2;
/// Ids that all statically hash onto one shard of [`WORKERS`]; the
/// first is the hot waveguide.
const WAVEGUIDES: [u64; 4] = [1, 2, 3, 6];

fn gate_with_width(n: usize, waveguide: WaveguideId) -> ParallelGate {
    ParallelGateBuilder::new(Waveguide::paper_default().expect("waveguide"))
        .channels(n)
        .inputs(3)
        .base_frequency(10.0 * GHZ)
        .frequency_step(4.0 * GHZ)
        .on_waveguide(waveguide)
        .build()
        .expect("gate")
}

fn scheduler_for(n: usize, adaptive: AdaptiveConfig) -> (Scheduler, Vec<GateId>) {
    let mut builder = SchedulerBuilder::new(ServeConfig {
        keep_readouts: false,
        workers: WORKERS,
        max_batch: BATCH,
        linger: Duration::from_micros(100),
        queue_depth: BATCH,
        lut_dir: None,
        adaptive,
    });
    let ids = WAVEGUIDES
        .iter()
        .map(|&wg| {
            builder
                .register(
                    format!("maj3_wg{wg}"),
                    gate_with_width(n, WaveguideId(wg)),
                    BackendChoice::Cached,
                )
                .expect("register")
        })
        .collect();
    (builder.build().expect("scheduler"), ids)
}

/// 80 % of the load on the hot waveguide, the rest round-robined over
/// the background ones.
fn skewed_requests(ids: &[GateId], sets: &[OperandSet]) -> Vec<(GateId, OperandSet)> {
    sets.iter()
        .enumerate()
        .map(|(i, set)| {
            let id = if i % 5 != 4 {
                ids[0]
            } else {
                ids[1 + (i / 5) % (ids.len() - 1)]
            };
            (id, set.clone())
        })
        .collect()
}

/// The latency probe: flood the hot waveguide with 192 queued
/// requests, then time one cold-waveguide request submitted behind the
/// burst. Under static placement the cold request shares the hot
/// shard's queue and waits out the whole drain ahead of it; with the
/// adaptive table converged, its waveguide lives on the other shard
/// and answers in its own (tiny) drain. Returns the median of `reps`.
fn cold_latency_behind_hot_burst(
    scheduler: &Scheduler,
    ids: &[GateId],
    sets: &[OperandSet],
    reps: usize,
) -> Duration {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let hot_tickets: Vec<_> = sets[..192]
            .iter()
            .map(|set| scheduler.submit(ids[0], set.clone()).expect("hot submit"))
            .collect();
        let start = Instant::now();
        scheduler
            .submit(ids[1], sets[0].clone())
            .expect("cold submit")
            .wait()
            .expect("cold wait");
        samples.push(start.elapsed());
        for ticket in hot_tickets {
            ticket.wait().expect("hot wait");
        }
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_skew(c: &mut Criterion) {
    for n in [8usize, 16] {
        let gate = gate_with_width(n, WaveguideId(WAVEGUIDES[0]));
        let sets = random_operand_sets(&gate, BATCH).expect("operand sets");
        let mut group = c.benchmark_group(format!("serve_skew_w{n}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements((BATCH * n) as u64));

        let modes: [(&str, AdaptiveConfig); 2] = [
            ("static_hash", AdaptiveConfig::off()),
            (
                "adaptive",
                AdaptiveConfig {
                    rebalance_interval: 32,
                    rebalance_ratio: 1.5,
                    ..AdaptiveConfig::default()
                },
            ),
        ];
        for (label, adaptive) in modes {
            let (scheduler, ids) = scheduler_for(n, adaptive);
            let routed = skewed_requests(&ids, &sets);
            // Warm every LUT (and let the placement table converge)
            // before timing.
            scheduler.evaluate_many(&routed).expect("warmup");
            scheduler.evaluate_many(&routed).expect("warmup");

            group.bench_function(format!("{label}_256"), |b| {
                b.iter(|| black_box(scheduler.evaluate_many(black_box(&routed)).expect("serve")))
            });

            let cold_latency = cold_latency_behind_hot_burst(&scheduler, &ids, &sets, 9);
            let stats = scheduler.stats();
            let telemetry = scheduler.telemetry();
            let per_shard: Vec<u64> = telemetry.shards.iter().map(|s| s.drained).collect();
            println!(
                "  [{label}/w{n}] drains={} mean_drain={:.1} max_drain={} fused={} \
                 rebalances={} per-shard drained={per_shard:?} \
                 cold-request latency behind 192-deep hot burst: {cold_latency:?} (median of 9)",
                stats.drain_passes,
                stats.mean_drain(),
                stats.max_drain,
                stats.fused_requests,
                telemetry.rebalances,
            );
            scheduler.shutdown().expect("shutdown");
        }
        group.finish();
    }
}

criterion_group!(benches, bench_skew);
criterion_main!(benches);
