//! Measurement plumbing: the seeded input generator, process CPU,
//! context-switch and memory readings, latency windows, and the
//! in-memory span tracer.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs
/// depend on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks of this
/// many per second on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Whether per-thread `schedstat` is readable on this host. Decided
/// once, so every CPU reading of a run comes from the same counter.
fn schedstat_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::fs::read_to_string("/proc/thread-self/schedstat").is_ok())
}

/// CPU time of the process in microseconds. Where the host has
/// per-thread `schedstat`, it is the sum of the live threads' on-CPU
/// time at nanosecond resolution: threads that exit drop out of the
/// sum (a thread gone between listing and reading is skipped), so only
/// differences across a window in which no thread exits are meaningful
/// (true of every measured window here). Elsewhere it is
/// [`process_stat_cpu_us`].
pub fn process_cpu_us() -> f64 {
    if !schedstat_available() {
        return process_stat_cpu_us();
    }
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e3
}

/// User + system CPU time of the whole process (every thread, live or
/// exited) from `/proc/self/stat`, in microseconds, at clock-tick
/// (10 ms) resolution.
fn process_stat_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // so utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ * 1e6
}

/// Context switches of the process's live threads, voluntary and
/// involuntary, from `/proc/self/task/*/status`: each is one time a
/// thread left a CPU, so every wake-up of a poll loop or a parked
/// thread counts once, however fast the host runs it. Like
/// [`process_cpu_us`], only differences across a window in which no
/// thread exits are meaningful.
pub fn process_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter_map(|line| {
                    line.strip_prefix("voluntary_ctxt_switches:")
                        .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
                })
                .filter_map(|count| count.trim().parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The op-latency percentiles a chunk keeps.
#[derive(Debug, Clone, Copy)]
pub enum Pct {
    P50,
    P90,
    P99,
}

impl Pct {
    const ALL: [Pct; 3] = [Pct::P50, Pct::P90, Pct::P99];

    fn q(self) -> f64 {
        match self {
            Pct::P50 => 0.5,
            Pct::P90 => 0.9,
            Pct::P99 => 0.99,
        }
    }
}

/// log2 of the buckets per power of two: a bucket is under 0.1% of its
/// value wide.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
/// Latencies are clamped below 2^40 ns (about 18 minutes).
const MAX_NS: u64 = (1 << 40) - 1;
const BUCKETS: usize = ((40 - SUB_BITS + 1) as usize) << SUB_BITS;

/// Op-latency histogram with log-linear buckets in a fixed block of
/// memory, so the benchmark's own footprint (and `peak_rss_mib`) does
/// not grow with the number of ops the program gets through.
struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Histogram {
    fn new() -> Self {
        let mut h = Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        };
        h.reset();
        h
    }

    /// Zeroes every bucket, which also makes the whole block resident
    /// before the first op is timed.
    fn reset(&mut self) {
        std::hint::black_box(&mut self.counts).fill(0);
        self.total = 0;
    }

    fn index(ns: u64) -> usize {
        let ns = ns.min(MAX_NS);
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) - SUB) as usize
    }

    /// Midpoint of bucket `index`, in nanoseconds.
    fn value_ns(index: usize) -> f64 {
        if (index as u64) < SUB {
            return index as f64;
        }
        let shift = (index >> SUB_BITS) as u32 - 1;
        let low = (SUB + (index as u64 & (SUB - 1))) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile `q`, in microseconds.
    fn percentile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::value_ns(i) / 1e3;
            }
        }
        Self::value_ns(BUCKETS - 1) / 1e3
    }
}

/// Equal slices a window is cut into. Rates and latency percentiles are
/// taken per chunk and reported as the median chunk, so a burst of load
/// from elsewhere on the host moves one chunk rather than the result.
pub const CHUNKS: usize = 2;

/// One slice of a closed-loop window.
#[derive(Debug, Default, Clone)]
pub struct Chunk {
    /// Ops that finished in the chunk.
    pub ops: u64,
    /// Their latency percentiles in microseconds, indexed by [`Pct`].
    pub op_pct_us: [f64; 3],
    /// Operand sets answered correctly.
    pub good_sets: u64,
    pub wall_s: f64,
    pub cpu_us: f64,
    /// Context switches of the process's threads in the chunk.
    pub switches: u64,
}

/// What one closed-loop window measured.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub chunks: Vec<Chunk>,
    pub attempted: u64,
    pub failed: u64,
}

impl Chunk {
    /// The chunk's op-latency percentile.
    pub fn percentile(&self, p: Pct) -> f64 {
        self.op_pct_us[p as usize]
    }
}

impl Window {
    pub fn wall_s(&self) -> f64 {
        self.chunks.iter().map(|c| c.wall_s).sum()
    }

    pub fn samples(&self) -> u64 {
        self.chunks.iter().map(|c| c.ops).sum()
    }

    /// Median over chunks of correct operand sets per second.
    pub fn sets_per_s(&self) -> f64 {
        median(&self.per_chunk(|c| c.good_sets as f64 / c.wall_s))
    }

    /// Process CPU per correct operand set over the whole window. A
    /// ratio of sums rather than a median: the cost differs between
    /// fresh stacks (where each one's threads land, which linger its
    /// workers settle on), so the figure averages over the repeats.
    pub fn cpu_us_per_set(&self) -> f64 {
        let cpu: f64 = self.chunks.iter().map(|c| c.cpu_us).sum();
        let sets: u64 = self.chunks.iter().map(|c| c.good_sets).sum();
        cpu / sets.max(1) as f64
    }

    /// Context switches per correct operand set over the whole window,
    /// a ratio of sums like [`Window::cpu_us_per_set`].
    pub fn switches_per_set(&self) -> f64 {
        let switches: u64 = self.chunks.iter().map(|c| c.switches).sum();
        let sets: u64 = self.chunks.iter().map(|c| c.good_sets).sum();
        switches as f64 / sets.max(1) as f64
    }

    /// The op-latency percentile: the median over chunks of each
    /// chunk's own percentile, however many ops a chunk holds.
    pub fn op_percentile_us(&self, p: Pct) -> f64 {
        median(&self.per_chunk(|c| c.percentile(p)))
    }

    /// Appends another window's chunks and counts.
    pub fn absorb(&mut self, other: Window) {
        self.chunks.extend(other.chunks);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn per_chunk(&self, f: impl Fn(&Chunk) -> f64) -> Vec<f64> {
        self.chunks.iter().filter(|c| c.ops > 0).map(f).collect()
    }
}

/// Runs `op` in a closed loop for `length`: the next op starts only
/// once the previous one answered. `op(i)` returns how many operand
/// sets it got back correct out of `sets_per_op`, or an error.
pub fn closed_loop(
    length: Duration,
    sets_per_op: usize,
    mut op: impl FnMut(u64) -> Result<usize, String>,
) -> Window {
    let mut window = Window::default();
    let mut latency = Histogram::new();
    let slice = length / CHUNKS as u32;
    for _ in 0..CHUNKS {
        let mut chunk = Chunk::default();
        latency.reset();
        let switches0 = process_switches();
        let cpu0 = process_cpu_us();
        let start = Instant::now();
        while start.elapsed() < slice {
            let t = Instant::now();
            let outcome = op(window.attempted);
            latency.record(t.elapsed().as_nanos() as u64);
            window.attempted += 1;
            match outcome {
                Ok(good) => {
                    chunk.good_sets += good as u64;
                    if good != sets_per_op {
                        window.failed += 1;
                    }
                }
                Err(e) => {
                    if window.failed == 0 {
                        eprintln!("op {} failed: {e}", window.attempted - 1);
                    }
                    window.failed += 1;
                }
            }
        }
        chunk.wall_s = start.elapsed().as_secs_f64();
        chunk.cpu_us = process_cpu_us() - cpu0;
        chunk.switches = process_switches() - switches0;
        chunk.ops = latency.total;
        for p in Pct::ALL {
            chunk.op_pct_us[p as usize] = latency.percentile_us(p.q());
        }
        window.chunks.push(chunk);
    }
    window
}

/// Untraced/traced slice pairs in a traced run's overhead comparison.
const PAIRS: u32 = 5;

/// Alternates untraced and traced closed-loop slices on one stack for
/// `length` in all, so drift in the runtime's adaptive state or in the
/// host's load falls on both sides alike. Returns the untraced and the
/// traced window; op ids continue from `first_op`. Leaves tracing on.
pub fn paired_windows(
    length: Duration,
    sets_per_op: usize,
    first_op: u64,
    tracer: &mut Tracer,
    mut op: impl FnMut(u64, &mut Tracer) -> Result<usize, String>,
) -> (Window, Window) {
    let mut plain = Window::default();
    let mut traced = Window::default();
    let slice = length / (2 * PAIRS);
    let mut next = first_op;
    for _ in 0..PAIRS {
        for (on, into) in [(false, &mut plain), (true, &mut traced)] {
            tracer.set_enabled(on);
            let w = closed_loop(slice, sets_per_op, |i| op(next + i, tracer));
            next += w.attempted;
            into.absorb(w);
        }
    }
    (plain, traced)
}

/// One recorded span: a call into a layer, timed from the benchmark's
/// side of the boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of one layer under one kind of root span.
pub struct SelfTime {
    pub root: &'static str,
    pub layer: &'static str,
    pub total_us: f64,
    pub roots: usize,
}

impl SelfTime {
    pub fn per_root_us(&self) -> f64 {
        self.total_us / self.roots.max(1) as f64
    }
}

/// In-memory span recorder. Disabled, `begin`/`end` cost one branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span (`None` when tracing is off).
#[must_use]
pub struct SpanGuard(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, op: u64) -> SpanGuard {
        if !self.on {
            return SpanGuard(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        SpanGuard(Some(index))
    }

    pub fn end(&mut self, guard: SpanGuard) {
        if let Some(index) = guard.0 {
            let now = self.now_ns();
            self.spans[index].end_ns = now;
            debug_assert_eq!(
                self.open.last(),
                Some(&index),
                "spans close innermost first"
            );
            self.open.pop();
        }
    }

    /// Sums of the spans named `name`, grouped per op, in microseconds.
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(s.op).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        per_op.into_values().collect()
    }

    /// Self time (a span's duration minus what its children cover) per
    /// kind of root span and layer: total microseconds, and how many
    /// root spans of that kind reached the layer. Sorted by root, then
    /// layer.
    pub fn self_time(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // A parent precedes its children, so one forward pass finds
        // every span's root.
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        let mut groups: BTreeMap<(&'static str, &'static str), (f64, BTreeSet<usize>)> =
            BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = groups
                .entry((self.spans[root[i]].name, s.layer))
                .or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3;
            entry.1.insert(root[i]);
        }
        groups
            .into_iter()
            .map(|((root, layer), (total_us, roots))| SelfTime {
                root,
                layer,
                total_us,
                roots: roots.len(),
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_contiguous_and_tight() {
        let mut last = 0;
        for ns in [
            0, 1, 1023, 1024, 1025, 2047, 2048, 180_000, 13_000_000, MAX_NS,
        ] {
            let i = Histogram::index(ns);
            assert!(i >= last && i < BUCKETS, "{ns} -> {i}");
            last = i;
            let v = Histogram::value_ns(i);
            assert!(
                (v - ns as f64).abs() <= ns as f64 / SUB as f64,
                "{ns} -> {v}"
            );
        }
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_match_nearest_rank() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(us * 1000);
        }
        for (q, want) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
            let got = h.percentile_us(q);
            assert!((got - want).abs() / want < 1e-3, "p{q}: {got} vs {want}");
        }
        h.reset();
        assert_eq!(h.percentile_us(0.5), 0.0);
    }
}
