//! FDM bench: N gates on N waveguides vs the same N gates FDM'd onto
//! ONE waveguide as N frequency lanes.
//!
//! Both sides serve the identical 256-request load (round-robined over
//! the N gates, cached backends, static policies) through
//! `evaluate_many`. The spread side owns N placement slots over the
//! workers; the FDM side packs all N designs onto waveguide 0's lanes,
//! which placement keeps co-resident on one shard, so the lanes share
//! each drain cycle — the serving-density axis of arXiv:2008.12220:
//! more concurrent gates per physical channel, not more hardware.
//!
//! The lane designs differ between the two sides only in their carrier
//! bands (the FDM side must occupy disjoint spectrum), so per-request
//! compute is identical once the LUTs are warm.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use magnon_bench::random_operand_sets;
use magnon_circuits::netlist::{fdm_lane_base, packed_frequency_step};
use magnon_core::backend::BackendChoice;
use magnon_core::gate::{LaneId, ParallelGate, ParallelGateBuilder, WaveguideId};
use magnon_core::truth::LogicFunction;
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{AdaptiveConfig, GateId, Scheduler, SchedulerBuilder, ServeConfig};
use std::hint::black_box;
use std::time::Duration;

const BATCH: usize = 256;
const GATES: u16 = 4;

/// One majority gate on lane `lane`'s band (used for BOTH sides, so
/// the per-request decode work matches exactly).
fn lane_gate(n: usize, lane: u16, waveguide: WaveguideId) -> ParallelGate {
    ParallelGateBuilder::new(Waveguide::paper_default().expect("waveguide"))
        .channels(n)
        .inputs(3)
        .function(LogicFunction::Majority)
        .base_frequency(fdm_lane_base(lane, n))
        .frequency_step(packed_frequency_step(n))
        .on_waveguide(waveguide)
        .on_lane(LaneId(lane))
        .build()
        .expect("gate")
}

fn scheduler_with(gates: Vec<ParallelGate>) -> (Scheduler, Vec<GateId>) {
    let mut builder = SchedulerBuilder::new(ServeConfig {
        keep_readouts: false,
        workers: 2,
        max_batch: BATCH,
        linger: Duration::from_micros(100),
        queue_depth: 1024,
        lut_dir: None,
        adaptive: AdaptiveConfig::off(),
    });
    let ids = gates
        .into_iter()
        .enumerate()
        .map(|(k, gate)| {
            builder
                .register(format!("maj3_{k}"), gate, BackendChoice::Cached)
                .expect("register")
        })
        .collect();
    (builder.build().expect("scheduler"), ids)
}

fn bench_fdm(c: &mut Criterion) {
    for n in [8usize, 16] {
        let probe = lane_gate(n, 0, WaveguideId(0));
        let sets = random_operand_sets(&probe, BATCH).expect("operand sets");
        let mut group = c.benchmark_group(format!("serve_fdm_w{n}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements((BATCH * n) as u64));

        // Spread: one gate per waveguide (the pre-FDM serving shape —
        // lane-shifted designs, but each alone on its medium).
        let spread: Vec<ParallelGate> = (0..GATES)
            .map(|k| lane_gate(n, k, WaveguideId(k as u64)))
            .collect();
        let (scheduler, ids) = scheduler_with(spread);
        let routed: Vec<(GateId, _)> = sets
            .iter()
            .enumerate()
            .map(|(i, set)| (ids[i % ids.len()], set.clone()))
            .collect();
        scheduler.evaluate_many(&routed).expect("warm the LUTs");
        group.bench_function(format!("{GATES}_gates_on_{GATES}_waveguides_256"), |b| {
            b.iter(|| black_box(scheduler.evaluate_many(black_box(&routed)).expect("serve")))
        });
        let spread_stats = scheduler.stats();
        scheduler.shutdown().expect("shutdown");

        // FDM: the same designs on waveguide 0 as N lanes.
        let lanes: Vec<ParallelGate> = (0..GATES)
            .map(|k| lane_gate(n, k, WaveguideId(0)))
            .collect();
        let (scheduler, ids) = scheduler_with(lanes);
        assert!(
            ids.iter()
                .all(|&id| scheduler.shard_of(id) == scheduler.shard_of(ids[0])),
            "the FDM side's lanes must be co-resident on one shard"
        );
        let routed: Vec<(GateId, _)> = sets
            .iter()
            .enumerate()
            .map(|(i, set)| (ids[i % ids.len()], set.clone()))
            .collect();
        scheduler.evaluate_many(&routed).expect("warm the LUTs");
        group.bench_function(format!("{GATES}_gates_fdm_on_1_waveguide_256"), |b| {
            b.iter(|| black_box(scheduler.evaluate_many(black_box(&routed)).expect("serve")))
        });
        let fdm_stats = scheduler.stats();
        println!(
            "  [w{n}] spread: {} drains / {} batches; fdm: {} drains / {} batches, {} serving more than one lane",
            spread_stats.drain_passes,
            spread_stats.batches,
            fdm_stats.drain_passes,
            fdm_stats.batches,
            fdm_stats.cross_gate_passes,
        );
        assert!(
            fdm_stats.cross_gate_passes > 0,
            "the FDM side's lanes must share drains: {fdm_stats:?}"
        );
        scheduler.shutdown().expect("shutdown");
        group.finish();
    }
}

criterion_group!(benches, bench_fdm);
criterion_main!(benches);
