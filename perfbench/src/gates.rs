//! The two loopback gate workloads: `rtt_serial` (one request at a
//! time) and `stream_skewed` (256-set bursts, most of them on one
//! waveguide). Both serve through `magnon-net` over 127.0.0.1 with the
//! shipped default configurations.

use crate::measure::{closed_loop, median, paired_windows, Pct, Rng, Tracer, Window};
use crate::report::{
    mechanism_checks, merge_checks, metric, net_identities, scheduler_identities, settle,
    window_shape, Counters, Metric, Run, Setup,
};
use crate::Args;
use magnon_core::backend::{BackendChoice, GateSession, OperandSet};
use magnon_core::gate::{LaneId, ParallelGate, WaveguideId};
use magnon_core::word::Word;
use magnon_net::{Frame, NetClient, NetClientConfig, NetServer, NetServerConfig, RemoteGateId};
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{Scheduler, SchedulerBuilder, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

/// Operand sets per `stream_skewed` burst.
const BURST: usize = 256;
/// Requests in the input pool (16384 ops of one request, or 64 bursts);
/// ops cycle through it.
const POOL: usize = 16384;
/// Word width of every gate: the paper's byte-wide data-parallel gate.
const WIDTH: usize = 8;
/// `stream_skewed`: waveguides × frequency lanes, and the share of
/// traffic on the hot waveguide (id 0).
const WAVEGUIDES: u64 = 4;
const LANES: u16 = 2;
const HOT_SHARE: f64 = 0.7;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RttSerial,
    StreamSkewed,
}

/// One request with its expected answer. The operands sit inline, so
/// the whole pool is one allocation and the benchmark's own heap stays
/// out of the memory figure's way.
struct Request {
    gate: usize,
    arity: usize,
    operands: [Word; 3],
    expect: Word,
}

impl Request {
    fn operands(&self) -> &[Word] {
        &self.operands[..self.arity]
    }
}

/// Op `i` of a pool holding `per_op` requests per op.
fn op_of(pool: &[Request], per_op: usize, i: u64) -> &[Request] {
    let start = (i as usize % (pool.len() / per_op)) * per_op;
    &pool[start..start + per_op]
}

struct Rig {
    scheduler: Arc<Scheduler>,
    server: NetServer,
    client: NetClient,
    gates: Vec<ParallelGate>,
    pool: Vec<Request>,
    per_op: usize,
    /// Requests the client got answered, warm-up included.
    net_requests: u64,
}

fn register(kind: Kind, builder: &mut SchedulerBuilder) -> Result<(), String> {
    let guide = Waveguide::paper_default().map_err(|e| e.to_string())?;
    match kind {
        Kind::RttSerial => {
            builder
                .register_circuit_gates(guide, WaveguideId(0), WIDTH, BackendChoice::Cached)
                .map_err(|e| e.to_string())?;
        }
        Kind::StreamSkewed => {
            for wg in 0..WAVEGUIDES {
                for lane in 0..LANES {
                    builder
                        .register_circuit_gates_on_lane(
                            guide,
                            WaveguideId(wg),
                            LaneId(lane),
                            WIDTH,
                            BackendChoice::Cached,
                        )
                        .map_err(|e| e.to_string())?;
                }
            }
        }
    }
    Ok(())
}

fn random_request(rng: &mut Rng, gate: usize, gates: &[ParallelGate]) -> Result<Request, String> {
    let arity = gates[gate].input_count();
    let mut operands = [Word::from_u8(0); 3];
    for word in &mut operands[..arity] {
        *word = Word::from_u8(rng.byte());
    }
    let expect = gates[gate]
        .evaluate(&operands[..arity])
        .map_err(|e| e.to_string())?
        .word();
    Ok(Request {
        gate,
        arity,
        operands,
        expect,
    })
}

/// Fills `pool` with the inputs and their reference answers
/// (`ParallelGate::evaluate`) and returns the requests per op. Repeats
/// refill one buffer: a fresh 1.3 MB pool per set-up would leave the
/// process's peak memory to the allocator's placement luck.
fn make_pool(
    kind: Kind,
    seed: u64,
    gates: &[ParallelGate],
    pool: &mut Vec<Request>,
) -> Result<usize, String> {
    let mut rng = Rng::new(seed);
    // Registration order is waveguide-major: 2 lanes × (MAJ3, XOR2)
    // per waveguide.
    let per_wg = gates.len() / WAVEGUIDES as usize;
    let pick = |rng: &mut Rng| match kind {
        Kind::RttSerial => rng.below(gates.len()),
        Kind::StreamSkewed => {
            let wg = if rng.chance(HOT_SHARE) {
                0
            } else {
                1 + rng.below(WAVEGUIDES as usize - 1)
            };
            wg * per_wg + rng.below(per_wg)
        }
    };
    pool.clear();
    for _ in 0..POOL {
        let gate = pick(&mut rng);
        pool.push(random_request(&mut rng, gate, gates)?);
    }
    Ok(match kind {
        Kind::RttSerial => 1,
        Kind::StreamSkewed => BURST,
    })
}

/// Sets that give every channel of a gate every row of its truth
/// table: input `j` of set `k` carries bit `(c + k) >> j & 1` on
/// channel `c`.
fn truth_table_sets(inputs: usize) -> Vec<Vec<Word>> {
    (0..1usize << inputs)
        .map(|k| {
            (0..inputs)
                .map(|j| {
                    let byte =
                        (0..WIDTH).fold(0u8, |acc, c| acc | ((((c + k) >> j) & 1) as u8) << c);
                    Word::from_u8(byte)
                })
                .collect()
        })
        .collect()
}

fn setup(kind: Kind, seed: u64, mut pool: Vec<Request>) -> Result<(Rig, Setup), String> {
    let start = Instant::now();
    let mut builder = SchedulerBuilder::new(ServeConfig::default());
    register(kind, &mut builder)?;
    let scheduler = Arc::new(builder.build().map_err(|e| e.to_string())?);
    let gates: Vec<ParallelGate> = (0..scheduler.gate_count())
        .map(|i| {
            scheduler
                .gate_id(i)
                .and_then(|id| scheduler.gate(id))
                .cloned()
        })
        .collect::<Option<_>>()
        .ok_or("gate directory has holes")?;

    let t = Instant::now();
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&scheduler),
        NetServerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut client = NetClient::connect_with(server.local_addr(), NetClientConfig::default())
        .map_err(|e| e.to_string())?;
    let bind_connect_ms = t.elapsed().as_secs_f64() * 1e3;
    // The wire directory is the registration order.
    for (i, info) in client.gates().iter().enumerate() {
        let name = scheduler.gate_id(i).and_then(|id| scheduler.gate_name(id));
        if name != Some(info.name.as_str()) {
            return Err(format!(
                "directory entry {i} is `{}`, expected {name:?}",
                info.name
            ));
        }
    }

    let t = Instant::now();
    let per_op = make_pool(kind, seed, &gates, &mut pool)?;
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;

    // LUT warm-up through the wire: every channel of every gate sees
    // every truth-table row once.
    let t = Instant::now();
    let mut warm = Vec::new();
    let mut expect = Vec::new();
    for (i, gate) in gates.iter().enumerate() {
        for set in truth_table_sets(gate.input_count()) {
            expect.push(gate.evaluate(&set).map_err(|e| e.to_string())?.word());
            warm.push((RemoteGateId(i as u32), set));
        }
    }
    let got = client.eval_many(&warm).map_err(|e| e.to_string())?;
    if got != expect {
        return Err("warm-up answers differ from ParallelGate::evaluate".into());
    }
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;

    let setup = Setup {
        total_s: start.elapsed().as_secs_f64(),
        compile_ms: 0.0,
        bind_connect_ms,
        reference_ms,
        warm_ms,
    };
    let net_requests = warm.len() as u64;
    Ok((
        Rig {
            scheduler,
            server,
            client,
            gates,
            pool,
            per_op,
            net_requests,
        },
        setup,
    ))
}

/// Shuts the stack down and hands back the input pool's buffer.
fn teardown(rig: Rig) -> Result<Vec<Request>, String> {
    let Rig {
        scheduler,
        server,
        client,
        pool,
        ..
    } = rig;
    drop(client);
    server.shutdown();
    Arc::try_unwrap(scheduler)
        .map_err(|_| "scheduler still shared after server shutdown".to_string())?
        .shutdown()
        .map_err(|e| e.to_string())?;
    Ok(pool)
}

impl Rig {
    /// One op over the wire: submit every request, then wait every
    /// reply. Returns the number answered correctly.
    fn net_op(&mut self, i: u64, tracer: &mut Tracer) -> Result<usize, String> {
        let op = op_of(&self.pool, self.per_op, i);
        let root = tracer.begin("bench", "op", i);
        let span = tracer.begin("net", "net.client_submit", i);
        let mut tags = Vec::with_capacity(op.len());
        for req in op {
            let tag = self
                .client
                .submit(RemoteGateId(req.gate as u32), req.operands())
                .map_err(|e| e.to_string())?;
            tags.push(tag);
        }
        tracer.end(span);
        let span = tracer.begin("net", "net.client_wait", i);
        let mut good = 0;
        for (tag, req) in tags.into_iter().zip(op) {
            let word = self.client.wait(tag).map_err(|e| e.to_string())?;
            self.net_requests += 1;
            good += usize::from(word == req.expect);
        }
        tracer.end(span);
        tracer.end(root);
        Ok(good)
    }
}

/// Per-layer probes of one op, all on the benchmark's side of each
/// layer's public functions. Returns the sets answered correctly
/// (checked once per layer) and the in-process submits made.
struct Probes {
    sessions: Vec<GateSession>,
    inproc_submits: u64,
}

impl Probes {
    fn new(gates: &[ParallelGate]) -> Result<Self, String> {
        let sessions = gates
            .iter()
            .map(|g| {
                let mut s = GateSession::new(g.clone(), BackendChoice::Cached)
                    .map_err(|e| e.to_string())?;
                s.warm_all();
                Ok(s)
            })
            .collect::<Result<_, String>>()?;
        Ok(Probes {
            sessions,
            inproc_submits: 0,
        })
    }

    fn run(&mut self, rig: &Rig, i: u64, tracer: &mut Tracer) -> Result<bool, String> {
        let op = op_of(&rig.pool, rig.per_op, i);
        let mut ok = true;
        let root = tracer.begin("bench", "probe", i);

        // serve: the same requests in-process.
        let inproc = tracer.begin("serve", "serve.inproc", i);
        let span = tracer.begin("serve", "serve.submit", i);
        let mut tickets = Vec::with_capacity(op.len());
        for req in op {
            let id = rig.scheduler.gate_id(req.gate).ok_or("unknown gate")?;
            tickets.push(
                rig.scheduler
                    .submit(id, OperandSet::new(req.operands().to_vec()))
                    .map_err(|e| e.to_string())?,
            );
        }
        tracer.end(span);
        self.inproc_submits += op.len() as u64;
        let span = tracer.begin("serve", "serve.wait", i);
        for (ticket, req) in tickets.into_iter().zip(op) {
            ok &= ticket.wait().map_err(|e| e.to_string())?.word() == req.expect;
        }
        tracer.end(span);
        tracer.end(inproc);

        // core: the op's sets grouped per gate, on warm sessions.
        let mut groups: Vec<(usize, Vec<OperandSet>, Vec<Word>)> = Vec::new();
        for req in op {
            let set = OperandSet::new(req.operands().to_vec());
            match groups.iter_mut().find(|g| g.0 == req.gate) {
                Some(g) => {
                    g.1.push(set);
                    g.2.push(req.expect);
                }
                None => groups.push((req.gate, vec![set], vec![req.expect])),
            }
        }
        let span = tracer.begin("core", "core.eval_logic", i);
        for (gate, sets, expect) in &groups {
            let words = self.sessions[*gate]
                .evaluate_batch_logic(sets)
                .map_err(|e| e.to_string())?;
            ok &= &words == expect;
        }
        tracer.end(span);

        // net: the op's own submit and response frames, encoded then
        // decoded.
        let frames: Vec<Frame> = op
            .iter()
            .enumerate()
            .flat_map(|(k, req)| {
                [
                    Frame::Submit {
                        tag: k as u64 + 1,
                        gate: req.gate as u32,
                        lane: None,
                        operands: req.operands().to_vec(),
                    },
                    Frame::Response {
                        tag: k as u64 + 1,
                        word: req.expect,
                    },
                ]
            })
            .collect();
        let span = tracer.begin("net", "net.frame_encode", i);
        let bytes: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| std::hint::black_box(f.encode()))
            .collect();
        tracer.end(span);
        let span = tracer.begin("net", "net.frame_decode", i);
        let decoded: Vec<Frame> = bytes
            .iter()
            .map(|b| Frame::decode(&b[4..]))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        tracer.end(span);
        ok &= decoded == frames;
        tracer.end(root);
        Ok(ok)
    }
}

pub fn run(kind: Kind, args: &Args) -> Result<Run, String> {
    let counters =
        |rig: &Rig| Counters::of(&rig.scheduler).with_net(rig.server.stats(), rig.client.stats());
    let (main, traced) = crate::windows(args);
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::new();
    let mut window = Window::default();
    let mut checks = Vec::new();
    let mut mechanisms = Vec::new();
    let mut pool = Vec::with_capacity(POOL);
    // Each repeat sets the whole stack up afresh and measures its own
    // slice of the window: the runtime's adaptive state (linger,
    // placement) starts over, so one run samples several of the
    // states users meet.
    for rep in 0..crate::REPEATS {
        let (mut rig, times) = setup(kind, args.seed, std::mem::take(&mut pool))?;
        setups.push(times);
        let sets_per_op = rig.per_op;
        let before = counters(&rig);
        let offset = window.attempted;
        window.absorb(closed_loop(
            main / crate::REPEATS as u32,
            sets_per_op,
            |i| rig.net_op(offset + i, &mut tracer),
        ));
        let mut shape = window_shape(&before, &counters(&rig));
        merge_checks(
            &mut mechanisms,
            match kind {
                Kind::RttSerial => mechanism_checks(&shape, false, true),
                Kind::StreamSkewed => mechanism_checks(&shape, true, false),
            },
        );
        let last = rep + 1 == crate::REPEATS;
        let mut paired = None;
        let mut layer = Vec::new();
        let mut probe_ops = 0;
        let mut probe_failed = 0;
        let mut inproc_submits = 0;
        if let (true, Some(length)) = (last, traced) {
            let before = counters(&rig);
            let (plain, traced) = paired_windows(
                length,
                sets_per_op,
                window.attempted,
                &mut tracer,
                |i, t| rig.net_op(i, t),
            );
            let offset = window.attempted + plain.attempted + traced.attempted;
            shape = window_shape(&before, &counters(&rig));
            let mut probes = Probes::new(&rig.gates)?;
            let start = Instant::now();
            while start.elapsed() < length / 2 {
                if !probes.run(&rig, offset + probe_ops, &mut tracer)? {
                    probe_failed += 1;
                }
                probe_ops += 1;
            }
            inproc_submits = probes.inproc_submits;
            layer = layer_metrics(&tracer, &plain, sets_per_op * 2);
            paired = Some((plain, traced));
        }

        let quiet = settle(&rig.scheduler).with_net(rig.server.stats(), rig.client.stats());
        merge_checks(
            &mut checks,
            scheduler_identities(&quiet, rig.net_requests + inproc_submits),
        );
        merge_checks(&mut checks, net_identities(&quiet, rig.net_requests));
        if !last {
            pool = teardown(rig)?;
            continue;
        }
        let config = vec![
            (
                "serve_config".into(),
                format!("{:?}", ServeConfig::default()),
            ),
            (
                "net_server_config".into(),
                format!("{:?}", NetServerConfig::default()),
            ),
            (
                "net_client_config".into(),
                format!("{:?}", NetClientConfig::default()),
            ),
            ("gates".into(), rig.gates.len().to_string()),
            ("sets_per_op".into(), sets_per_op.to_string()),
        ];
        teardown(rig)?;
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

/// Per-op medians of the layer spans. `frames_per_op` is how many
/// frames one op's encode/decode span covers.
fn layer_metrics(tracer: &Tracer, untraced: &Window, frames_per_op: usize) -> Vec<Metric> {
    let m = |name: &str| median(&tracer.per_op_us(name));
    let inproc = m("serve.inproc");
    vec![
        metric("core.eval_logic_us", m("core.eval_logic"), "us"),
        metric("serve.inproc_op_us", inproc, "us"),
        metric("serve.submit_us", m("serve.submit"), "us"),
        metric("serve.wait_us", m("serve.wait"), "us"),
        metric("net.client_submit_us", m("net.client_submit"), "us"),
        metric("net.client_wait_us", m("net.client_wait"), "us"),
        metric(
            "net.wire_overhead_us",
            untraced.op_percentile_us(Pct::P50) - inproc,
            "us",
        ),
        metric(
            "net.frame_encode_ns",
            m("net.frame_encode") * 1e3 / frames_per_op as f64,
            "ns",
        ),
        metric(
            "net.frame_decode_ns",
            m("net.frame_decode") * 1e3 / frames_per_op as f64,
            "ns",
        ),
    ]
}
