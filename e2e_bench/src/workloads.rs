//! The three workloads: seeded inputs, set-up, timed phases and the
//! output and cost checks.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::time::Instant;

use softmap::{
    ApSoftmax, ApSoftmaxRun, CacheStats, CoreError, PlanCache, PlanMode, ServeConfig, ServeStats,
    SoftmaxServer, Ticket, TileState, VectorCost,
};
use softmap_ap::{CycleStats, DeviceConfig, DivStyle, EnergyModel, ExecBackend, OptLevel};
use softmap_llm::configs::{llama2_7b, SoftmaxWorkload};
use softmap_softmax::PrecisionConfig;

use crate::host::{process_cpu_s, CpuTicks, SchedTimes};
use crate::inputs::{logit_row, Rng};
use crate::metrics::{ratio, STEP_METRICS};
use crate::speed::HostSpeed;
use crate::trace::{Layer, NoTrace, Probe, Tracer};

/// A seeded traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Autoregressive decode: every step is a new KV length, so the
    /// plan cache misses on the request path.
    DecodeGrow,
    /// Prefill rows of 4k–32k scores, sharded over tiles; every shape
    /// is compiled during set-up.
    LongContext,
    /// Mixed 64–16384 traffic through a two-worker `SoftmaxServer`.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::DecodeGrow,
        Workload::LongContext,
        Workload::ServeMixed,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeGrow => "decode-grow",
            Workload::LongContext => "long-context",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sequences decoded side by side in decode-grow.
const DECODE_BATCH: usize = 1;
/// KV length a decode sequence starts at.
const DECODE_PROMPT: usize = 64;
/// KV length at which a decode sequence ends and the next one starts.
const DECODE_MAX: usize = 512;
/// Long-context row lengths, spread over 4k–32k so latency percentiles
/// move smoothly with host speed instead of jumping between the modes of
/// a few lengths. Most are not powers of two (6000, 12000, ...), so the
/// autotuner balances their shards.
const LONG_LENGTHS: [usize; 13] = [
    4096, 5000, 6000, 7168, 8192, 10000, 12000, 14336, 16384, 20000, 24576, 28000, 32768,
];
/// One period of the serve-mixed request mix: mostly short rows, with
/// long ones at intervals (8192 spans four tiles, 16384 eight).
const SERVE_PATTERN: [usize; 12] = [64, 256, 64, 1024, 64, 4096, 256, 64, 8192, 1024, 64, 16384];
/// Serving worker threads, set in `ServeConfig` rather than taken from
/// the environment.
const SERVE_WORKERS: usize = 2;
/// Tickets the serve-mixed client keeps outstanding: more than the
/// 48-tile grid admits at once.
const SERVE_WINDOW: usize = 64;
/// Distinct seeded logit sets each workload cycles through.
const VARIANTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Seconds of calibrated work between host-speed reference runs on one
/// thread (3 decode steps, 127 long-context vectors at `--seconds 25`).
/// The host's speed changes within a second, so references only a
/// segment (about a second) apart would miss changes inside it.
const REFERENCE_EVERY_S: f64 = 0.15;
/// Served requests per block (100 rounds of the pattern): one throughput
/// sample, one steal share and one set of latency percentiles each.
const SERVE_BLOCK: u64 = 100 * SERVE_PATTERN.len() as u64;

/// Units per second of `--seconds`. A run's size is fixed by these and
/// `--seconds` alone, never by a deadline, so its counts and simulated
/// means repeat exactly; they were chosen so one run measures for
/// about `--seconds` on a 2-core Xeon host.
const DECODE_STEPS_PER_S: f64 = 18.0;
const LONG_ROUNDS_PER_S: f64 = 65.0;
const SERVE_ROUNDS_PER_S: f64 = 480.0;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Selects the logit generator's stream.
    pub seed: u64,
    /// Scales the number of units measured.
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
}

/// The mapping every workload measures: the library defaults, spelled
/// out so no environment knob can change them, on the FastWord backend
/// (the library's default backend is the Microcode oracle).
fn mapping() -> Result<ApSoftmax, CoreError> {
    Ok(ApSoftmax::new(PrecisionConfig::paper_best())?
        .with_backend(ExecBackend::FastWord)
        .with_div_style(DivStyle::Restoring)
        .with_device(DeviceConfig::default())
        .with_plan_capacity(PlanCache::DEFAULT_CAPACITY)
        .with_plan_mode(PlanMode::Cached)
        .with_opt_level(OptLevel::Full)
        .with_resident(true)
        .with_blocked(true)
        .with_autotune(true))
}

/// The serving configuration: library defaults apart from the explicit
/// worker count.
fn serve_config(warmup_shapes: Vec<usize>) -> ServeConfig {
    ServeConfig {
        workers: SERVE_WORKERS,
        queue_depth: ServeConfig::default().queue_depth,
        warmup_shapes,
        shard_parallel: true,
    }
}

/// One decode step's shape, as `SoftmaxWorkload::decode` counts the
/// rows of Llama2-7b, the smallest model the paper evaluates: one per
/// layer × head × sequence (32 × 32 × 1 = 1024). Returns the distinct
/// rows (one per head and sequence) and how often the step repeats them
/// (once per layer). Reusing the head rows across layers bounds the
/// reference and cost preparation at 32 rows per KV length.
fn decode_shape() -> (usize, usize) {
    let w = SoftmaxWorkload::decode(&llama2_7b(), DECODE_PROMPT, DECODE_BATCH);
    (w.heads * w.vectors_per_head_layer, w.layers)
}

/// A 64-bit digest of a code vector. Equal codes give equal digests;
/// unequal ones collide with probability about 2^-64.
fn digest(codes: &[u64]) -> u64 {
    codes.iter().fold(codes.len() as u64, |h, &c| {
        let z = (h ^ c).wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// One distinct input vector: its scores in the flat pool, the digest
/// of its reference codes, the cost an inline run of it charges, and
/// the index of its length's static cost.
#[derive(Debug, Clone, Copy)]
struct Case {
    start: usize,
    len: usize,
    reference: u64,
    total: CycleStats,
    latency_cycles: u64,
    cost: usize,
}

/// One unit of work: `repeat` passes over `count` consecutive cases (a
/// decode step's layers over its head rows), preceded by a shape warm-up
/// when `compile` names a length.
#[derive(Debug, Clone, Copy)]
struct Unit {
    first: usize,
    count: usize,
    repeat: usize,
    compile: Option<usize>,
}

impl Unit {
    /// The cases one pass runs, in order.
    fn rows<'a>(&self, inputs: &'a Inputs) -> &'a [Case] {
        &inputs.cases[self.first..self.first + self.count]
    }
}

/// A workload's inputs, reference digests and expected costs, all
/// built before set-up starts.
#[derive(Debug)]
pub struct Inputs {
    scores: Vec<f64>,
    cases: Vec<Case>,
    costs: Vec<VectorCost>,
    warm_shapes: Vec<usize>,
    warm: Vec<Unit>,
    timed: Vec<Unit>,
}

/// Prepares [`Inputs`]: generates rows, runs the scalar reference on each,
/// runs each inline on a separate mapping for its expected cost, and
/// asks that mapping for each length's static cost.
struct Preparer {
    seed: u64,
    spec: softmap_softmax::IntSoftmax,
    oracle: ApSoftmax,
    state: TileState,
    run: ApSoftmaxRun,
    cost_index: BTreeMap<usize, usize>,
    inputs: Inputs,
}

impl Preparer {
    fn new(seed: u64) -> Result<Self, CoreError> {
        let oracle = mapping()?;
        Ok(Self {
            seed,
            spec: oracle.spec().clone(),
            oracle,
            state: TileState::new(),
            run: ApSoftmaxRun::default(),
            cost_index: BTreeMap::new(),
            inputs: Inputs {
                scores: Vec::new(),
                cases: Vec::new(),
                costs: Vec::new(),
                warm_shapes: Vec::new(),
                warm: Vec::new(),
                timed: Vec::new(),
            },
        })
    }

    /// Appends a seeded logit row of `len` scores; returns its start.
    fn row(&mut self, stream: u64, len: usize) -> usize {
        let start = self.inputs.scores.len();
        let mut rng = Rng::new(self.seed, stream);
        logit_row(&mut rng, len, &mut self.inputs.scores);
        start
    }

    /// Registers the case `scores[start..start + len]`.
    fn case(&mut self, start: usize, len: usize) -> Result<(), CoreError> {
        let scores = &self.inputs.scores[start..start + len];
        let out = self.spec.run_floats(scores)?;
        // Plans compile from `warmup`'s representative input, as in
        // every measured mapping, so the autotuner picks the same
        // winner here.
        self.oracle.warmup(&[len])?;
        self.oracle
            .execute_floats_into(&mut self.state, scores, &mut self.run)?;
        let cost = match self.cost_index.get(&len) {
            Some(&i) => i,
            None => {
                self.inputs.costs.push(self.oracle.static_vector_cost(len)?);
                self.cost_index.insert(len, self.inputs.costs.len() - 1);
                self.inputs.costs.len() - 1
            }
        };
        self.inputs.cases.push(Case {
            start,
            len,
            reference: digest(&out.codes),
            total: self.run.total,
            latency_cycles: self.run.latency_cycles,
            cost,
        });
        Ok(())
    }
}

/// `seconds × per_second`, at least one.
fn scaled(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}

impl Inputs {
    /// Generates the workload's rows from `seed`, computes every
    /// reference and expected cost, and lays out the warm-pass and timed
    /// units for a run of `seconds`.
    ///
    /// # Errors
    ///
    /// A reference or static-cost error.
    pub fn build(workload: Workload, seed: u64, seconds: f64) -> Result<Self, CoreError> {
        let mut b = Preparer::new(seed)?;
        let stream = |variant: usize, row: usize| ((variant as u64) << 32) | row as u64;
        match workload {
            Workload::DecodeGrow => {
                // Each (variant, head) row holds DECODE_MAX logits; a
                // step at KV length L reads the first L.
                let (rows, layers) = decode_shape();
                let mut bases = Vec::with_capacity(VARIANTS * rows);
                for v in 0..VARIANTS {
                    for r in 0..rows {
                        bases.push(b.row(stream(v, r), DECODE_MAX));
                    }
                }
                // Only the (variant, length) steps the run reaches get
                // cases, in order of first use.
                let mut steps = BTreeMap::new();
                let mut step = |b: &mut Preparer, v: usize, len: usize| {
                    let first = match steps.get(&(v, len)) {
                        Some(&first) => first,
                        None => {
                            let first = b.inputs.cases.len();
                            for r in 0..rows {
                                b.case(bases[v * rows + r], len)?;
                            }
                            steps.insert((v, len), first);
                            first
                        }
                    };
                    Ok::<_, CoreError>(Unit {
                        first,
                        count: rows,
                        repeat: layers,
                        compile: Some(len),
                    })
                };
                // Set-up compiles the last lengths of a sequence, as
                // many as the plan cache holds, and the warm pass runs
                // the last step, so the timed phase starts with a full
                // cache and evicts from its first step.
                b.inputs.warm_shapes =
                    (DECODE_MAX + 1 - PlanCache::DEFAULT_CAPACITY..=DECODE_MAX).collect();
                b.inputs.warm = vec![step(&mut b, 0, DECODE_MAX)?];
                // Sequences follow one another, alternating variants.
                let lengths = DECODE_MAX - DECODE_PROMPT + 1;
                for i in 0..scaled(seconds, DECODE_STEPS_PER_S) {
                    let unit = step(&mut b, i / lengths % VARIANTS, DECODE_PROMPT + i % lengths)?;
                    b.inputs.timed.push(unit);
                }
            }
            Workload::LongContext => {
                for v in 0..VARIANTS {
                    for (r, &len) in LONG_LENGTHS.iter().enumerate() {
                        let start = b.row(stream(v, r), len);
                        b.case(start, len)?;
                    }
                }
                b.inputs.warm_shapes = LONG_LENGTHS.to_vec();
                b.inputs.warm = rounds(1, LONG_LENGTHS.len());
                b.inputs.timed = rounds(scaled(seconds, LONG_ROUNDS_PER_S), LONG_LENGTHS.len());
            }
            Workload::ServeMixed => {
                for v in 0..VARIANTS {
                    for (r, &len) in SERVE_PATTERN.iter().enumerate() {
                        let start = b.row(stream(v, r), len);
                        b.case(start, len)?;
                    }
                }
                let mut shapes = SERVE_PATTERN.to_vec();
                shapes.sort_unstable();
                shapes.dedup();
                b.inputs.warm_shapes = shapes;
                b.inputs.warm = rounds(
                    2 * SERVE_WINDOW / SERVE_PATTERN.len() + 1,
                    SERVE_PATTERN.len(),
                );
                b.inputs.timed = rounds(scaled(seconds, SERVE_ROUNDS_PER_S), SERVE_PATTERN.len());
            }
        }
        Ok(b.inputs)
    }

    /// The scores of every case, concatenated in case order (two seeds
    /// give different inputs exactly when these differ).
    #[must_use]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Timed units per run.
    #[must_use]
    pub fn timed_units(&self) -> usize {
        self.timed.len()
    }

    fn scores_of(&self, case: &Case) -> &[f64] {
        &self.scores[case.start..case.start + case.len]
    }

    fn max_pass_rows(&self) -> usize {
        self.warm
            .iter()
            .chain(&self.timed)
            .map(|u| u.count)
            .max()
            .unwrap_or(1)
    }

    /// Spans one traced phase records at most.
    fn span_capacity(&self) -> usize {
        self.timed
            .iter()
            .map(|u| 2 + u.repeat * (1 + 2 * u.count))
            .sum()
    }

    /// Compares one output with its reference codes (by digest) and its
    /// inline cost, notes whether its cycles also match its length's
    /// static cost, and adds its simulated quantities to `tally`.
    fn check(&self, case: &Case, run: &ApSoftmaxRun, tally: &mut Tally) {
        tally.vectors += 1;
        tally.checked += 1;
        tally.scores += case.len as u64;
        if run.codes.len() == case.len && digest(&run.codes) == case.reference {
            tally.exact += 1;
        }
        if run.total != case.total || run.latency_cycles != case.latency_cycles {
            tally.cost_mismatches += 1;
        }
        let cost = &self.costs[case.cost];
        if run.total.cycles() == cost.total.cycles() && run.latency_cycles == cost.latency_cycles {
            tally.static_matches += 1;
        }
        tally.cycles += run.total.cycles();
        tally.latency_cycles += run.latency_cycles;
        tally.energy_j += EnergyModel::nm16().energy(&run.total).total_j;
        tally.shards += run.shards as u64;
        tally.waves += run.waves;
        tally.reduction_cycles += run.reduction.cycles();
        tally.cell_events += run.total.cell_events();
        if run.shards > 1 {
            tally.sharded += 1;
        }
        for step in &run.steps {
            let slot = STEP_METRICS
                .iter()
                .position(|&(name, _)| name == step.name)
                .unwrap_or(STEP_METRICS.len());
            tally.steps[slot] += step.stats.cycles();
        }
    }
}

/// `n` rounds over the first `per_round` cases of each variant,
/// alternating variants round by round.
fn rounds(n: usize, per_round: usize) -> Vec<Unit> {
    (0..n)
        .flat_map(|k| {
            (0..per_round).map(move |i| Unit {
                first: (k % VARIANTS) * per_round + i,
                count: 1,
                repeat: 1,
                compile: None,
            })
        })
        .collect()
}

/// Step-cycle slots: one per [`STEP_METRICS`] entry plus a catch-all.
pub(crate) const STEP_SLOTS: usize = STEP_METRICS.len() + 1;

/// Checked outputs and their simulated quantities.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    /// Vectors attempted (failed units count all their vectors).
    pub vectors: u64,
    /// Vectors that completed and were checked; the simulated means
    /// divide by this.
    pub checked: u64,
    /// Vectors whose codes equal the scalar reference.
    pub exact: u64,
    /// Vectors whose cost differs from an inline run of the same input.
    pub cost_mismatches: u64,
    /// Vectors whose cycles equal `static_vector_cost` of their length.
    pub static_matches: u64,
    /// Scores of completed vectors.
    pub scores: u64,
    /// Σ `run.total.cycles()`.
    pub cycles: u64,
    /// Σ `run.latency_cycles`.
    pub latency_cycles: u64,
    /// Σ energy, joules.
    pub energy_j: f64,
    /// Σ `run.shards`.
    pub shards: u64,
    /// Σ `run.waves`.
    pub waves: u64,
    /// Σ `run.reduction.cycles()`.
    pub reduction_cycles: u64,
    /// Σ `run.total.cell_events()`.
    pub cell_events: u64,
    /// Vectors that ran on more than one tile.
    pub sharded: u64,
    /// Vectors whose cached plan runs region-blocked.
    pub engaged: u64,
    /// Σ step cycles, indexed like [`STEP_METRICS`] plus one catch-all.
    pub steps: [u64; STEP_SLOTS],
}

/// Plan-cache counters summed over a phase's segments.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CacheDelta {
    /// Lookups that found a compiled plan.
    pub hits: u64,
    /// Plans compiled.
    pub compiles: u64,
    /// Plans evicted.
    pub evictions: u64,
    /// Shapes the autotuner searched.
    pub shapes_tuned: u64,
    /// Candidate mappings it scored.
    pub candidates_scored: u64,
    /// Searches a candidate other than the paper default won.
    pub tuned_wins: u64,
}

impl CacheDelta {
    /// The counters of a mapping that started empty.
    pub fn of(stats: &CacheStats) -> Self {
        Self {
            hits: stats.hits,
            compiles: stats.compiles,
            evictions: stats.evictions,
            shapes_tuned: stats.shapes_tuned,
            candidates_scored: stats.candidates_scored,
            tuned_wins: stats.tuned_wins,
        }
    }

    /// Adds the change from `before` to `after`.
    fn add(&mut self, before: &CacheStats, after: &CacheStats) {
        let (b, a) = (Self::of(before), Self::of(after));
        self.hits += a.hits - b.hits;
        self.compiles += a.compiles - b.compiles;
        self.evictions += a.evictions - b.evictions;
        self.shapes_tuned += a.shapes_tuned - b.shapes_tuned;
        self.candidates_scored += a.candidates_scored - b.candidates_scored;
        self.tuned_wins += a.tuned_wins - b.tuned_wins;
    }
}

/// Adds the change of serving counters from `before` to `after` to
/// `sum`; the tile count is carried over, not summed.
fn add_serve(sum: &mut ServeStats, before: &ServeStats, after: &ServeStats) {
    sum.queued += after.queued - before.queued;
    sum.completed += after.completed - before.completed;
    sum.waves_formed += after.waves_formed - before.waves_formed;
    sum.coalesced += after.coalesced - before.coalesced;
    sum.backpressure += after.backpressure - before.backpressure;
    sum.busy_cycles += after.busy_cycles - before.busy_cycles;
    sum.makespan_cycles += after.makespan_cycles - before.makespan_cycles;
    sum.tiles = after.tiles;
}

/// What one measured phase saw, summed over its segments.
#[derive(Debug)]
pub(crate) struct Phase {
    /// Units attempted.
    pub units: u64,
    /// Units that returned an error.
    pub failed: u64,
    /// Seconds the program worked: the sum of unit latencies for the
    /// single-thread workloads, the segments' wall time when serving.
    pub busy_s: f64,
    /// Throughput samples, scores per second of process CPU time at the
    /// reference host's speed: one per unit on one thread, one per
    /// [`SERVE_BLOCK`] collected requests when serving.
    pub rates: Vec<f64>,
    /// Wall time of the segments, checks included.
    pub wall_s: f64,
    /// Process CPU time over the segments, checks included.
    pub cpu_s: f64,
    /// Per-unit wall latency samples at the reference host's speed,
    /// microseconds.
    pub latencies_us: Vec<f64>,
    /// When serving, the end of each block of [`SERVE_BLOCK`] requests in
    /// `latencies_us`.
    pub latency_blocks: Vec<usize>,
    /// When serving, the share of each block's CPU ticks that the
    /// hypervisor did not steal.
    pub block_unstolen: Vec<f64>,
    /// Checked outputs.
    pub tally: Tally,
    /// Scheduler time of every live thread over the segments.
    pub sched: SchedTimes,
    /// System-wide CPU ticks over the segments.
    pub cpu: CpuTicks,
    /// Plan-cache counter changes.
    pub cache: CacheDelta,
    /// Serving counter changes (serve-mixed only).
    pub serve: Option<ServeStats>,
}

impl Phase {
    /// An empty phase about to run `units` units.
    fn new(units: usize) -> Self {
        Self {
            units: 0,
            failed: 0,
            busy_s: 0.0,
            rates: Vec::with_capacity(units),
            wall_s: 0.0,
            cpu_s: 0.0,
            latencies_us: Vec::with_capacity(units),
            latency_blocks: Vec::new(),
            block_unstolen: Vec::new(),
            tally: Tally::default(),
            sched: SchedTimes::default(),
            cpu: CpuTicks::default(),
            cache: CacheDelta::default(),
            serve: None,
        }
    }

    /// Where the samples taken next start.
    fn mark(&self) -> (usize, usize) {
        (self.rates.len(), self.latencies_us.len())
    }

    /// Expresses the samples taken since `mark` at the reference host's
    /// speed: rates divided by their `scale`, latencies multiplied by it
    /// (see [`HostSpeed::scale`]).
    fn scale_since(&mut self, mark: (usize, usize), scale: f64) {
        for rate in &mut self.rates[mark.0..] {
            *rate /= scale;
        }
        for latency in &mut self.latencies_us[mark.1..] {
            *latency *= scale;
        }
    }
}

/// The clocks at the start of one segment of a phase.
struct SegmentStart {
    wall: Instant,
    cpu_s: f64,
    sched: SchedTimes,
    ticks: CpuTicks,
}

impl SegmentStart {
    fn now() -> Self {
        Self {
            sched: SchedTimes::now(),
            ticks: CpuTicks::now(),
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Adds the segment's wall, CPU and scheduler time to `phase`.
    fn end(self, phase: &mut Phase) {
        phase.wall_s += self.wall.elapsed().as_secs_f64();
        phase.cpu_s += process_cpu_s() - self.cpu_s;
        phase.sched.add(&SchedTimes::now().since(&self.sched));
        phase.cpu.add(&CpuTicks::now().since(&self.ticks));
    }
}

/// One set-up's compile spans, its wall time and the cache counters it
/// left behind.
#[derive(Debug)]
pub(crate) struct TracedSetup {
    /// Spans recorded during the set-up.
    pub tracer: Tracer,
    /// The set-up's wall time, seconds.
    pub wall_s: f64,
    /// Plan-cache counters at its end (the mapping starts empty).
    pub cache: CacheDelta,
}

/// The traced run's phase, its spans, and its set-up's spans.
#[derive(Debug)]
pub(crate) struct Traced {
    /// The traced timed phase.
    pub phase: Phase,
    /// Its spans.
    pub tracer: Tracer,
    /// The set-up of the measured mapping.
    pub setup: TracedSetup,
}

/// Everything one run measured.
#[derive(Debug)]
pub(crate) struct Measured {
    /// Process CPU seconds of each set-up at the reference host's speed.
    pub setup_s: Vec<f64>,
    /// The host-speed reference runs and the scales they gave.
    pub speed: HostSpeed,
    /// The untraced timed phase.
    pub plain: Phase,
    /// The traced run, with `--trace 1`.
    pub traced: Option<Traced>,
}

/// Splits `units` timed units into [`SETUP_REPS`] contiguous segments
/// whose lengths are multiples of `align`; trailing segments may be
/// short or empty.
fn segments(units: usize, align: usize) -> Vec<Range<usize>> {
    let per = units.div_ceil(SETUP_REPS).div_ceil(align) * align;
    (0..SETUP_REPS)
        .map(|k| (k * per).min(units)..((k + 1) * per).min(units))
        .collect()
}

/// A single-thread mapping with its tile, codes and the output buffers
/// of one pass.
struct Inline {
    mapping: ApSoftmax,
    state: TileState,
    codes: Vec<i64>,
    runs: Vec<ApSoftmaxRun>,
}

/// Runs one set-up. Returns the process CPU seconds it took, its state,
/// and its wall time and compile spans. Tracing the few warm-up calls
/// costs nothing measurable beside the compiles they time.
fn timed_setup<S>(
    inputs: &Inputs,
    setup: impl Fn(&Inputs, &mut Tracer) -> Result<S, CoreError>,
    cache: impl Fn(&S) -> CacheStats,
) -> Result<(f64, S, TracedSetup), CoreError> {
    let mut tracer = Tracer::with_capacity(inputs.warm_shapes.len());
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let s = setup(inputs, &mut tracer)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let cache = CacheDelta::of(&cache(&s));
    Ok((
        cpu_s,
        s,
        TracedSetup {
            tracer,
            wall_s,
            cache,
        },
    ))
}

/// Builds the mapping, warms its shapes and runs the warm pass.
fn setup_inline(inputs: &Inputs, tracer: &mut Tracer) -> Result<Inline, CoreError> {
    let mapping = mapping()?;
    for &len in &inputs.warm_shapes {
        tracer.span(Layer::Compile, 0, || mapping.warmup(&[len]))?;
    }
    let mut s = Inline {
        mapping,
        state: TileState::new(),
        codes: Vec::new(),
        runs: vec![ApSoftmaxRun::default(); inputs.max_pass_rows()],
    };
    for (u, unit) in inputs.warm.iter().enumerate() {
        for pass in 0..unit.repeat {
            run_pass(&mut s, inputs, unit, pass, u as u32, &mut NoTrace)?;
        }
    }
    Ok(s)
}

/// Runs pass `pass` of `unit` into `s.runs`, after the unit's shape
/// warm-up on its first pass. Untraced it calls `execute_floats_into`;
/// traced it makes the same two calls that function makes,
/// `quantize_into` and `execute_codes_into`, each in its own span.
fn run_pass<P: Probe>(
    s: &mut Inline,
    inputs: &Inputs,
    unit: &Unit,
    pass: usize,
    id: u32,
    probe: &mut P,
) -> Result<(), CoreError> {
    let mapping = &s.mapping;
    if let (0, Some(len)) = (pass, unit.compile) {
        probe.span(Layer::Compile, id, || mapping.warmup(&[len]))?;
    }
    for (case, run) in unit.rows(inputs).iter().zip(&mut s.runs) {
        let scores = inputs.scores_of(case);
        if P::TRACED {
            let codes = &mut s.codes;
            probe.span(Layer::Quantize, id, || {
                mapping.spec().quantize_into(scores, codes);
            });
            let (state, codes) = (&mut s.state, &s.codes);
            probe.span(Layer::Execute, id, || {
                mapping.execute_codes_into(state, codes, run)
            })?;
        } else {
            mapping.execute_floats_into(&mut s.state, scores, run)?;
        }
    }
    Ok(())
}

/// Whether the plan in the tile's slot runs region-blocked.
fn blocking_engaged(state: &TileState) -> bool {
    state
        .cached_plan()
        .and_then(|p| p.block_stats())
        .or_else(|| state.cached_sharded_plan().and_then(|p| p.block_stats()))
        .is_some_and(|b| b.engaged)
}

/// Times the timed units in `range` on one thread, adding them to
/// `phase`. Each pass of a unit is checked as soon as it ends, with the
/// clocks stopped, so the program's outputs stay one pass in size, as
/// when a model consumes each layer's softmax before the next layer.
fn timed_inline<P: Probe>(
    s: &mut Inline,
    inputs: &Inputs,
    range: Range<usize>,
    probe: &mut P,
    phase: &mut Phase,
) {
    let cache0 = s.mapping.cache_stats();
    let start = SegmentStart::now();
    for u in range {
        let unit = &inputs.timed[u];
        let id = u as u32;
        let scores_before = phase.tally.scores;
        let (mut dt, mut cpu, mut ok) = (0.0, 0.0, true);
        probe.enter(Layer::Unit, id);
        for pass in 0..unit.repeat {
            let (t0, cpu0) = (Instant::now(), process_cpu_s());
            let result = run_pass(s, inputs, unit, pass, id, probe);
            cpu += process_cpu_s() - cpu0;
            dt += t0.elapsed().as_secs_f64();
            let tally = &mut phase.tally;
            ok = probe.span(Layer::Check, id, || {
                if result.is_err() {
                    tally.vectors += (unit.count * (unit.repeat - pass)) as u64;
                    return false;
                }
                for (case, run) in unit.rows(inputs).iter().zip(&s.runs) {
                    inputs.check(case, run, tally);
                }
                if blocking_engaged(&s.state) {
                    tally.engaged += unit.count as u64;
                }
                true
            });
            if !ok {
                break;
            }
        }
        probe.exit();
        phase.units += 1;
        phase.busy_s += dt;
        phase.latencies_us.push(dt * 1e6);
        if ok {
            let scores = phase.tally.scores - scores_before;
            phase.rates.push(ratio(scores as f64, cpu));
        } else {
            phase.failed += 1;
        }
    }
    start.end(phase);
    phase.cache.add(&cache0, &s.mapping.cache_stats());
}

/// Runs the timed units in `range` on one thread in chunks of `per`
/// units, each followed by a host-speed reference run that scales it.
/// Returns the first chunk's scale, whose reference runs also bracket a
/// set-up just before `range`.
fn timed_chunks<P: Probe>(
    s: &mut Inline,
    inputs: &Inputs,
    range: Range<usize>,
    per: usize,
    probe: &mut P,
    (phase, speed): (&mut Phase, &mut HostSpeed),
) -> f64 {
    let mut first = None;
    let empty = range.is_empty().then_some(range.start);
    for start in range.clone().step_by(per).chain(empty) {
        let mark = phase.mark();
        timed_inline(s, inputs, start..(start + per).min(range.end), probe, phase);
        let scale = speed.scale();
        phase.scale_since(mark, scale);
        first.get_or_insert(scale);
    }
    first.expect("at least one chunk")
}

/// Runs a single-thread workload. Each of the [`SETUP_REPS`] set-ups
/// builds a fresh mapping, which then runs one segment of the untraced
/// phase, so the set-ups sample the host across the whole run. A
/// host-speed reference run follows every [`REFERENCE_EVERY_S`] of
/// calibrated work and scales it. With `--trace 1` the last mapping
/// then runs the traced phase, scaled the same way.
fn measure_inline(opts: &Options, inputs: &Inputs) -> Result<Measured, CoreError> {
    let units = inputs.timed.len();
    let per = ((units as f64 * REFERENCE_EVERY_S / opts.seconds).round() as usize).max(1);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut plain = Phase::new(units);
    let mut speed = HostSpeed::start(1);
    let mut last = None;
    for range in segments(units, 1) {
        drop(last.take());
        let (cpu_s, mut s, setup) = timed_setup(inputs, setup_inline, |s| s.mapping.cache_stats())?;
        let scale = timed_chunks(
            &mut s,
            inputs,
            range,
            per,
            &mut NoTrace,
            (&mut plain, &mut speed),
        );
        setup_s.push(cpu_s * scale);
        last = Some((s, setup));
    }
    let (mut s, setup) = last.expect("at least one set-up");
    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::with_capacity(inputs.span_capacity());
        let mut phase = Phase::new(units);
        timed_chunks(
            &mut s,
            inputs,
            0..units,
            per,
            &mut tracer,
            (&mut phase, &mut speed),
        );
        Traced {
            phase,
            tracer,
            setup,
        }
    });
    Ok(Measured {
        setup_s,
        speed,
        plain,
        traced,
    })
}

/// Builds the server (after warming its shapes) and runs the warm pass.
fn setup_served(
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<(SoftmaxServer, ApSoftmaxRun), CoreError> {
    let mapping = mapping()?;
    for &len in &inputs.warm_shapes {
        tracer.span(Layer::Compile, 0, || mapping.warmup(&[len]))?;
    }
    let server = SoftmaxServer::new(mapping, serve_config(inputs.warm_shapes.clone()))?;
    let mut run = ApSoftmaxRun::default();
    let mut failed = None;
    served_loop(
        &server,
        inputs,
        &inputs.warm,
        0,
        &mut run,
        &mut NoTrace,
        |_, result, _, _| {
            if let Err(e) = result {
                failed.get_or_insert(e);
            }
        },
    );
    match failed {
        Some(e) => Err(e),
        None => Ok((server, run)),
    }
}

/// The closed-loop client: keeps [`SERVE_WINDOW`] tickets outstanding,
/// collects the oldest, refills the window, then hands the collected
/// result to `done` (index into `units`, outcome, latency in µs, run).
/// Spans carry unit ids counted from `first_id`.
fn served_loop<P: Probe>(
    server: &SoftmaxServer,
    inputs: &Inputs,
    units: &[Unit],
    first_id: usize,
    run: &mut ApSoftmaxRun,
    probe: &mut P,
    mut done: impl FnMut(usize, Result<(), CoreError>, f64, &ApSoftmaxRun),
) {
    let mut inflight: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(SERVE_WINDOW);
    let mut next = 0;
    if units.is_empty() {
        return;
    }
    let id = |u: usize| (first_id + u) as u32;
    while next < units.len() || !inflight.is_empty() {
        probe.enter(Layer::Unit, id(next.min(units.len() - 1)));
        let collected = if inflight.len() == SERVE_WINDOW || next == units.len() {
            let (u, submitted, ticket) = inflight.pop_front().expect("window not empty");
            let result = probe.span(Layer::Wait, id(u), || ticket.wait_into(run));
            Some((u, result, submitted.elapsed().as_secs_f64() * 1e6))
        } else {
            None
        };
        if next < units.len() {
            let case = &inputs.cases[units[next].first];
            let submitted = Instant::now();
            let ticket = probe.span(Layer::Submit, id(next), || {
                server.submit(inputs.scores_of(case))
            });
            match ticket {
                Ok(t) => inflight.push_back((next, submitted, t)),
                Err(e) => done(next, Err(e), 0.0, run),
            }
            next += 1;
        }
        if let Some((u, result, latency_us)) = collected {
            probe.span(Layer::Check, id(u), || done(u, result, latency_us, run));
        }
        probe.exit();
    }
}

/// Serves the timed units in `range`, adding them to `phase`. `range`
/// holds whole blocks of [`SERVE_BLOCK`] requests, so no block spans two
/// segments.
fn timed_served<P: Probe>(
    server: &SoftmaxServer,
    run: &mut ApSoftmaxRun,
    inputs: &Inputs,
    range: Range<usize>,
    probe: &mut P,
    phase: &mut Phase,
) {
    let (cache0, serve0) = (server.cache_stats(), server.stats());
    let units = &inputs.timed[range.clone()];
    let start = SegmentStart::now();
    // Scores, process CPU seconds and CPU ticks at the block's start.
    let mut block = (phase.tally.scores, start.cpu_s, start.ticks);
    served_loop(
        server,
        inputs,
        units,
        range.start,
        run,
        probe,
        |u, result, latency_us, run| {
            phase.units += 1;
            let case = &inputs.cases[units[u].first];
            match result {
                Ok(()) => {
                    phase.latencies_us.push(latency_us);
                    inputs.check(case, run, &mut phase.tally);
                }
                Err(_) => {
                    phase.failed += 1;
                    phase.tally.vectors += 1;
                }
            }
            if phase.units.is_multiple_of(SERVE_BLOCK) {
                let (cpu, ticks) = (process_cpu_s(), CpuTicks::now());
                let scores = phase.tally.scores - block.0;
                phase.rates.push(ratio(scores as f64, cpu - block.1));
                let steal = ticks.since(&block.2).steal_share();
                phase.block_unstolen.push(1.0 - steal);
                phase.latency_blocks.push(phase.latencies_us.len());
                block = (phase.tally.scores, cpu, ticks);
            }
        },
    );
    let wall0 = phase.wall_s;
    start.end(phase);
    phase.busy_s += phase.wall_s - wall0;
    phase.cache.add(&cache0, &server.cache_stats());
    add_serve(
        phase.serve.get_or_insert_with(ServeStats::default),
        &serve0,
        &server.stats(),
    );
}

/// Runs serve-mixed. Each of the [`SETUP_REPS`] set-ups builds a fresh
/// server, which then serves one segment of the untraced phase, so the
/// set-ups sample the host across the whole run. A host-speed reference
/// run on as many threads as workers follows every segment, with the
/// workers idle, and scales it. With `--trace 1` the last server then
/// serves the traced phase, in the same segments, each scaled the same
/// way.
fn measure_served(opts: &Options, inputs: &Inputs) -> Result<Measured, CoreError> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut plain = Phase::new(inputs.timed.len());
    let mut speed = HostSpeed::start(SERVE_WORKERS);
    let mut last = None;
    for range in segments(inputs.timed.len(), SERVE_BLOCK as usize) {
        // Dropping a server drains and joins its workers.
        drop(last.take());
        let mark = plain.mark();
        let (cpu_s, (server, mut run), setup) =
            timed_setup(inputs, setup_served, |s| s.0.cache_stats())?;
        timed_served(&server, &mut run, inputs, range, &mut NoTrace, &mut plain);
        let scale = speed.scale();
        setup_s.push(cpu_s * scale);
        plain.scale_since(mark, scale);
        last = Some((server, run, setup));
    }
    let (server, mut run, setup) = last.expect("at least one set-up");
    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::with_capacity(inputs.span_capacity());
        let mut phase = Phase::new(inputs.timed.len());
        for range in segments(inputs.timed.len(), SERVE_BLOCK as usize) {
            let mark = phase.mark();
            timed_served(&server, &mut run, inputs, range, &mut tracer, &mut phase);
            phase.scale_since(mark, speed.scale());
        }
        Traced {
            phase,
            tracer,
            setup,
        }
    });
    Ok(Measured {
        setup_s,
        speed,
        plain,
        traced,
    })
}

/// Runs the workload's set-ups and timed phases on prepared inputs.
///
/// # Errors
///
/// A set-up or warm-pass error; errors inside timed phases are counted
/// as failed units instead.
pub(crate) fn measure(opts: &Options, inputs: &Inputs) -> Result<Measured, CoreError> {
    match opts.workload {
        Workload::DecodeGrow | Workload::LongContext => measure_inline(opts, inputs),
        Workload::ServeMixed => measure_served(opts, inputs),
    }
}
