//! The `circuit_pipelined` workload: a compiled 8-bit ripple adder plus
//! an 8-input XOR parity tree, run in-process by one caller through
//! `CircuitExecutor::run_batch`, 32 operand sets per batch.

use crate::measure::{closed_loop, median, paired_windows, Rng, Tracer, Window};
use crate::report::{
    mechanism_checks, merge_checks, metric, scheduler_identities, settle, window_shape, Counters,
    Run, Setup,
};
use crate::Args;
use magnon_circuits::adder::full_adder;
use magnon_circuits::netlist::{Circuit, NodeId, NodeKind};
use magnon_compiler::{compile, CompiledCircuit, CompilerConfig};
use magnon_core::backend::{BackendChoice, GateSession, OperandSet};
use magnon_core::gate::WaveguideId;
use magnon_core::word::Word;
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{
    register_compiled, CircuitExecutor, CompiledGates, GateId, Scheduler, SchedulerBuilder,
    ServeConfig,
};
use std::time::Instant;

const WIDTH: usize = 8;
const ADDER_BITS: usize = 8;
const PARITY_INPUTS: usize = 8;
/// Operand sets per batch (one op).
const SETS: usize = 32;
/// Distinct batches in the input pool; ops cycle through it.
const POOL: usize = 16;

/// Adder and parity tree in one netlist, sharing no wires: 31 gates
/// over 24 inputs.
fn adder_and_parity() -> Result<Circuit, String> {
    let e = |e: magnon_core::GateError| e.to_string();
    let mut c = Circuit::new(WIDTH).map_err(e)?;
    let a: Vec<_> = (0..ADDER_BITS).map(|_| c.input()).collect();
    let b: Vec<_> = (0..ADDER_BITS).map(|_| c.input()).collect();
    let mut carry = c.constant(Word::zeros(WIDTH).map_err(e)?).map_err(e)?;
    for i in 0..ADDER_BITS {
        let (sum, carry_out) = full_adder(&mut c, a[i], b[i], carry).map_err(e)?;
        c.mark_output(sum).map_err(e)?;
        carry = carry_out;
    }
    c.mark_output(carry).map_err(e)?;
    let mut layer: Vec<NodeId> = (0..PARITY_INPUTS).map(|_| c.input()).collect();
    while layer.len() > 1 {
        let mut next = Vec::new();
        for pair in layer.chunks(2) {
            next.push(match pair {
                [x, y] => c.xor2(*x, *y).map_err(e)?,
                [x] => *x,
                _ => unreachable!("chunks(2) yields one or two"),
            });
        }
        layer = next;
    }
    c.mark_output(layer[0]).map_err(e)?;
    Ok(c)
}

/// One batch of operand sets with the reference outputs.
struct Batch {
    sets: Vec<Vec<Word>>,
    expect: Vec<Vec<Word>>,
}

struct Rig {
    scheduler: Scheduler,
    compiled: CompiledCircuit,
    gates: CompiledGates,
    batches: Vec<Batch>,
    /// Scheduler submits made outside the measured executor.
    side_submits: u64,
}

fn setup(seed: u64) -> Result<(Rig, Setup), String> {
    let start = Instant::now();
    let guide = Waveguide::paper_default().map_err(|e| e.to_string())?;
    let circuit = adder_and_parity()?;
    let t = Instant::now();
    let compiled =
        compile(&circuit, &guide, &CompilerConfig::default()).map_err(|e| e.to_string())?;
    let compile_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut builder = SchedulerBuilder::new(ServeConfig::default());
    let gates = register_compiled(
        &mut builder,
        &compiled,
        guide,
        WaveguideId(0),
        BackendChoice::Cached,
    )
    .map_err(|e| e.to_string())?;
    let scheduler = builder.build().map_err(|e| e.to_string())?;

    let t = Instant::now();
    let mut rng = Rng::new(seed);
    let batches = (0..POOL)
        .map(|_| {
            let sets: Vec<Vec<Word>> = (0..SETS)
                .map(|_| {
                    (0..circuit.input_count())
                        .map(|_| Word::from_u8(rng.byte()))
                        .collect()
                })
                .collect();
            let expect = circuit.evaluate_batch(&sets).map_err(|e| e.to_string())?;
            Ok(Batch { sets, expect })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;

    // Warm every slot's LUT with one pass over the whole pool.
    let t = Instant::now();
    let mut executor =
        CircuitExecutor::new(&scheduler, &compiled, &gates).map_err(|e| e.to_string())?;
    for batch in &batches {
        if executor.run_batch(&batch.sets).map_err(|e| e.to_string())? != batch.expect {
            return Err("warm-up outputs differ from Circuit::evaluate_batch".into());
        }
    }
    let side_submits = executor.dispatch_stats().sets_dispatched;
    drop(executor);
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let setup = Setup {
        total_s: start.elapsed().as_secs_f64(),
        compile_ms,
        bind_connect_ms: 0.0,
        reference_ms,
        warm_ms,
    };
    Ok((
        Rig {
            scheduler,
            compiled,
            gates,
            batches,
            side_submits,
        },
        setup,
    ))
}

/// The gate a plan node executes on.
fn gate_for(rig: &Rig, node: NodeId, kind: NodeKind) -> Result<GateId, String> {
    let slot = rig
        .compiled
        .slot_of(node)
        .ok_or("gate node without a slot")?;
    let (maj, xor) = rig.gates.slots()[slot];
    match kind {
        NodeKind::Maj3(..) => Ok(maj),
        NodeKind::Xor2(..) => Ok(xor),
        _ => Err("free node in a wavefront".into()),
    }
}

/// Evaluates `sets` through the plan one ASAP wavefront at a time:
/// `level` answers every `(node, operand set)` request of a wavefront,
/// in order. Free nodes (inputs, constants, inversions) resolve here.
fn run_levels(
    rig: &Rig,
    sets: &[Vec<Word>],
    mut level: impl FnMut(&[(NodeId, NodeKind, OperandSet)]) -> Result<Vec<Word>, String>,
) -> Result<Vec<Vec<Word>>, String> {
    let circuit = rig.compiled.circuit();
    let kinds = circuit.node_kinds();
    let mut values: Vec<Vec<Option<Word>>> = vec![vec![None; kinds.len()]; sets.len()];
    let resolve_free = |values: &mut Vec<Vec<Option<Word>>>| {
        for (set, row) in values.iter_mut().enumerate() {
            // Operands precede consumers, so one forward pass resolves
            // every free node whose operand is known.
            for (i, kind) in kinds.iter().enumerate() {
                row[i] = row[i].or(match *kind {
                    NodeKind::Input { index } => Some(sets[set][index]),
                    NodeKind::Constant(w) => Some(w),
                    NodeKind::Not(a) => row[a.index()].map(Word::not),
                    _ => None,
                });
            }
        }
    };
    resolve_free(&mut values);
    for wavefront in rig.compiled.levels() {
        let mut requests = Vec::with_capacity(wavefront.len() * sets.len());
        for &node in wavefront {
            let kind = kinds[node.index()];
            for row in &values {
                let operands = kind
                    .operands()
                    .iter()
                    .map(|op| row[op.index()].ok_or("operand not ready"))
                    .collect::<Result<Vec<Word>, _>>()?;
                requests.push((node, kind, OperandSet::new(operands)));
            }
        }
        let words = level(&requests)?;
        for (k, word) in words.into_iter().enumerate() {
            let node = requests[k].0;
            values[k % sets.len()][node.index()] = Some(word);
        }
        resolve_free(&mut values);
    }
    values
        .iter()
        .map(|row| {
            circuit
                .outputs()
                .iter()
                .map(|o| row[o.index()].ok_or_else(|| "output unresolved".to_string()))
                .collect()
        })
        .collect()
}

fn count_good(got: &[Vec<Word>], expect: &[Vec<Word>]) -> usize {
    got.iter().zip(expect).filter(|(g, e)| g == e).count()
}

/// Per-layer probes of one batch from the benchmark's side: the
/// reference, the same wavefronts served in-process through
/// `Scheduler::submit`/`Ticket::wait`, and the same wavefronts on warm
/// `GateSession`s.
fn probe(
    rig: &mut Rig,
    sessions: &mut [(GateId, GateSession)],
    i: u64,
    tracer: &mut Tracer,
) -> Result<bool, String> {
    let batch = &rig.batches[i as usize % rig.batches.len()];
    let root = tracer.begin("bench", "probe", i);
    let span = tracer.begin("circuits", "circuits.reference", i);
    let reference = rig
        .compiled
        .circuit()
        .evaluate_batch(&batch.sets)
        .map_err(|e| e.to_string())?;
    tracer.end(span);
    let mut ok = reference == batch.expect;

    let span = tracer.begin("serve", "serve.inproc", i);
    let mut submits = 0;
    let served = run_levels(rig, &batch.sets, |requests| {
        let s = tracer.begin("serve", "serve.submit", i);
        let mut tickets = Vec::with_capacity(requests.len());
        for (node, kind, set) in requests {
            let id = gate_for(rig, *node, *kind)?;
            tickets.push(
                rig.scheduler
                    .submit(id, set.clone())
                    .map_err(|e| e.to_string())?,
            );
        }
        submits += requests.len() as u64;
        tracer.end(s);
        let s = tracer.begin("serve", "serve.wait", i);
        let words = tickets
            .into_iter()
            .map(|t| t.wait().map(|o| o.word()).map_err(|e| e.to_string()))
            .collect();
        tracer.end(s);
        words
    })?;
    tracer.end(span);
    ok &= served == batch.expect;

    let span = tracer.begin("core", "core.eval_logic", i);
    let evaluated = run_levels(rig, &batch.sets, |requests| {
        let mut words = vec![Word::from_u8(0); requests.len()];
        // One batch per node: its requests are contiguous.
        for chunk_start in (0..requests.len()).step_by(batch.sets.len()) {
            let chunk = &requests[chunk_start..chunk_start + batch.sets.len()];
            let id = gate_for(rig, chunk[0].0, chunk[0].1)?;
            let session = &mut sessions
                .iter_mut()
                .find(|(g, _)| *g == id)
                .ok_or("no session for gate")?
                .1;
            let sets: Vec<OperandSet> = chunk.iter().map(|r| r.2.clone()).collect();
            let out = session
                .evaluate_batch_logic(&sets)
                .map_err(|e| e.to_string())?;
            words[chunk_start..chunk_start + out.len()].copy_from_slice(&out);
        }
        Ok(words)
    })?;
    tracer.end(span);
    ok &= evaluated == batch.expect;
    tracer.end(root);
    rig.side_submits += submits;
    Ok(ok)
}

/// One op: a batch through the pipelined executor.
fn circuit_op(
    executor: &mut CircuitExecutor<'_>,
    batches: &[Batch],
    i: u64,
    tracer: &mut Tracer,
) -> Result<usize, String> {
    let batch = &batches[i as usize % batches.len()];
    let root = tracer.begin("bench", "op", i);
    let span = tracer.begin("pipeline", "pipeline.run_batch", i);
    let out = executor.run_batch(&batch.sets).map_err(|e| e.to_string())?;
    tracer.end(span);
    tracer.end(root);
    Ok(count_good(&out, &batch.expect))
}

pub fn run(args: &Args) -> Result<Run, String> {
    let (main, traced) = crate::windows(args);
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::new();
    let mut window = Window::default();
    let mut checks = Vec::new();
    let mut mechanisms = Vec::new();
    // As for the gate workloads: a fresh stack per repeat, each
    // measuring its share of the window.
    for rep in 0..crate::REPEATS {
        let last = rep + 1 == crate::REPEATS;
        let (mut rig, times) = setup(args.seed)?;
        setups.push(times);
        let mut executor = CircuitExecutor::new(&rig.scheduler, &rig.compiled, &rig.gates)
            .map_err(|e| e.to_string())?;
        let before = Counters::of(&rig.scheduler);
        let offset = window.attempted;
        window.absorb(closed_loop(main / crate::REPEATS as u32, SETS, |i| {
            circuit_op(&mut executor, &rig.batches, offset + i, &mut tracer)
        }));
        let mut shape = window_shape(&before, &Counters::of(&rig.scheduler));
        merge_checks(&mut mechanisms, mechanism_checks(&shape, true, false));

        let mut paired = None;
        let traced = traced.filter(|_| last);
        if let Some(length) = traced {
            let before = Counters::of(&rig.scheduler);
            let dispatched = executor.dispatch_stats().sets_dispatched;
            let pair = paired_windows(length, SETS, window.attempted, &mut tracer, |i, t| {
                circuit_op(&mut executor, &rig.batches, i, t)
            });
            shape = window_shape(&before, &Counters::of(&rig.scheduler));
            shape.push(metric(
                "pipeline.peak_in_flight",
                executor.peak_in_flight() as f64,
                "requests",
            ));
            shape.push(metric(
                "pipeline.sets_dispatched",
                (executor.dispatch_stats().sets_dispatched - dispatched) as f64,
                "count",
            ));
            paired = Some(pair);
        }
        let executor_submits = executor.dispatch_stats().sets_dispatched;
        drop(executor);

        let mut probe_ops = 0;
        let mut probe_failed = 0;
        let mut layer = Vec::new();
        if let Some(length) = traced {
            let mut sessions = Vec::new();
            for &(maj, xor) in rig.gates.slots() {
                for id in [maj, xor] {
                    let gate = rig.scheduler.gate(id).ok_or("unknown gate")?.clone();
                    let mut session =
                        GateSession::new(gate, BackendChoice::Cached).map_err(|e| e.to_string())?;
                    session.warm_all();
                    sessions.push((id, session));
                }
            }
            let offset = window.attempted
                + paired
                    .as_ref()
                    .map_or(0, |(p, t): &(Window, Window)| p.attempted + t.attempted);
            let start = Instant::now();
            while start.elapsed() < length / 2 {
                if !probe(&mut rig, &mut sessions, offset + probe_ops, &mut tracer)? {
                    probe_failed += 1;
                }
                probe_ops += 1;
            }
            let m = |name: &str| median(&tracer.per_op_us(name));
            let reference = m("circuits.reference");
            layer = vec![
                metric("core.eval_logic_us", m("core.eval_logic"), "us"),
                metric("serve.inproc_op_us", m("serve.inproc"), "us"),
                metric("serve.submit_us", m("serve.submit"), "us"),
                metric("serve.wait_us", m("serve.wait"), "us"),
                metric("pipeline.reference_us", reference, "us"),
                metric(
                    "pipeline.overhead_us",
                    m("pipeline.run_batch") - reference,
                    "us",
                ),
            ];
        }

        let quiet = settle(&rig.scheduler);
        merge_checks(
            &mut checks,
            scheduler_identities(&quiet, rig.side_submits + executor_submits),
        );
        if !last {
            rig.scheduler.shutdown().map_err(|e| e.to_string())?;
            continue;
        }
        let report = rig.compiled.report();
        let config = vec![
            (
                "serve_config".into(),
                format!("{:?}", ServeConfig::default()),
            ),
            (
                "compiler_config".into(),
                format!("{:?}", CompilerConfig::default()),
            ),
            (
                "plan".into(),
                format!(
                    "{} gates, depth {}, {} slots on {} waveguides x {} lanes",
                    report.gate_counts.maj3 + report.gate_counts.xor2,
                    report.depth,
                    report.slot_count,
                    report.waveguides_used,
                    report.lanes_per_waveguide
                ),
            ),
            ("sets_per_op".into(), SETS.to_string()),
        ];
        rig.scheduler.shutdown().map_err(|e| e.to_string())?;
        return Ok(Run {
            setups,
            window,
            paired,
            probe_ops,
            probe_failed,
            layer,
            shape,
            checks,
            mechanisms,
            tracer,
            config,
        });
    }
    unreachable!("REPEATS is at least one")
}
