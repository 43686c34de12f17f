//! Host-speed reference: a fixed body of work shaped like the
//! simulator's replay loop, timed between stretches of a run's work.
//!
//! On the reference host, a 2-vCPU guest shared with other guests, a
//! vCPU runs the same code up to about 1.9× slower for seconds to
//! minutes at a time, with no steal, and the program and this reference
//! slow down alike. CPU time leaves stolen time out but counts a slower
//! CPU in full. So the benchmark times this reference before the first
//! set-up and then between stretches of work, on every core the
//! workload keeps busy, and expresses each stretch's host times at the
//! reference host's usual speed: scaled by [`REFERENCE_CPU_S`] over the
//! reference's CPU time around it. The reference is the benchmark's own
//! code and never calls the program, so a change to the program moves
//! the scaled metrics by the same share as the raw ones.

use std::hint::black_box;

use crate::host::thread_cpu_s;
use crate::inputs::Rng;

/// Thread CPU seconds one reference run takes on the reference host at
/// its usual speed (see the package README).
pub const REFERENCE_CPU_S: f64 = 0.0142;

/// Column words per bit plane of the widest field: a 2048-row tile.
const MAX_BLOCKS: usize = 32;
/// Bit planes per field.
const PLANES: usize = 16;
/// Fields of the modelled tile.
const FIELDS: usize = 8;
/// Words of the tile: 8 × 16 × 32 words is 32 KiB, which stays in the
/// L1 data cache beside the program's own state.
const TILE: usize = FIELDS * PLANES * MAX_BLOCKS;
/// Widths, in 64-row words, the program is replayed over: decode rows
/// of 64–512 scores up to a full tile of a sharded vector.
const WIDTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Ops in the replayed program.
const OPS: usize = 64;
/// Replays of the program at every width in one timed part.
const REPLAYS: usize = 72;
/// Timed parts of one reference run. The run counts the fastest part,
/// so a cold cache, an interrupt or a stall shorter than the other
/// parts does not move it, while a host that stays slow slows every
/// part.
const PARTS: usize = 5;

/// One op of the reference program, over fields of the tile.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Bit-serial ripple add of the first field into the second.
    Add(usize, usize),
    /// Bit-serial ripple subtract of the first field from the second.
    Sub(usize, usize),
    /// Plane-wise XOR of the first two fields into the third.
    Xor(usize, usize, usize),
    /// Plane-wise AND of the first two fields into the third.
    And(usize, usize, usize),
    /// Shift of a field towards its low planes.
    Shr(usize, usize),
    /// Population count of a field.
    Count(usize),
}

/// One copy of the reference: its tile and its program.
#[derive(Debug)]
struct Kernel {
    /// The tile's words from index `base`, then a carry row and an
    /// output row. `base` is cache-line aligned and nothing the kernel
    /// touches lives on the stack, so every process runs the same loads
    /// at the same offsets.
    words: Vec<u64>,
    base: usize,
    program: Vec<Op>,
}

/// One kernel per core a workload keeps busy, the CPU time of every
/// timed reference run so far, and the scales they gave.
#[derive(Debug)]
pub(crate) struct HostSpeed {
    kernels: Vec<Kernel>,
    /// CPU seconds of each timed reference run, in order.
    pub runs_s: Vec<f64>,
    /// The scale each reference run after the first gave, in order.
    pub scales: Vec<f64>,
}

/// Index of the first word of `plane` of `field`.
fn at(field: usize, plane: usize) -> usize {
    (field * PLANES + plane) * MAX_BLOCKS
}

impl HostSpeed {
    /// Builds one kernel for each of the `threads` cores the workload
    /// keeps busy and times the first reference run.
    pub fn start(threads: usize) -> Self {
        let mut speed = Self {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
            runs_s: Vec::new(),
            scales: Vec::new(),
        };
        speed.time();
        speed
    }

    /// Times one more reference run and returns the scale of the work
    /// done between it and the previous one: [`REFERENCE_CPU_S`] over the
    /// mean CPU time of the two. Below 1 when the host ran slower than
    /// the reference host's usual speed.
    pub fn scale(&mut self) -> f64 {
        let before = *self.runs_s.last().expect("start timed a run");
        let after = self.time();
        let scale = REFERENCE_CPU_S / (0.5 * (before + after));
        self.scales.push(scale);
        scale
    }

    /// Runs every kernel at once, each on its own thread (the calling
    /// thread runs the first), and records the harmonic mean of their
    /// CPU times: the time of one run at the cores' mean speed.
    fn time(&mut self) -> f64 {
        let (first, rest) = self.kernels.split_first_mut().expect("one kernel");
        let times: Vec<f64> = std::thread::scope(|scope| {
            let helpers: Vec<_> = rest.iter_mut().map(|k| scope.spawn(|| k.time())).collect();
            let mut times = vec![first.time()];
            times.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("reference thread")),
            );
            times
        });
        let cpu_s = times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>();
        self.runs_s.push(cpu_s);
        cpu_s
    }
}

impl Kernel {
    /// Builds the tile and the program from a fixed seed.
    fn new() -> Self {
        let mut rng = Rng::new(0x5EED, 0);
        let mut words = vec![0u64; TILE + 2 * MAX_BLOCKS + 8];
        let base = words.as_mut_ptr().align_offset(64);
        for w in &mut words[base..base + TILE] {
            *w = rng.next_u64();
        }
        let field = |rng: &mut Rng| (rng.next_u64() % FIELDS as u64) as usize;
        let program = (0..OPS)
            .map(|_| {
                let (a, b) = (field(&mut rng), field(&mut rng));
                let b = if a == b { (b + 1) % FIELDS } else { b };
                match rng.next_u64() % 6 {
                    0 => Op::Add(a, b),
                    1 => Op::Sub(a, b),
                    2 => Op::Xor(a, b, field(&mut rng)),
                    3 => Op::And(a, b, field(&mut rng)),
                    4 => Op::Shr(a, 1 + (rng.next_u64() % 3) as usize),
                    _ => Op::Count(a),
                }
            })
            .collect();
        Self {
            words,
            base,
            program,
        }
    }

    /// Runs the kernel [`PARTS`] times on the calling thread; returns
    /// [`PARTS`] times the fastest part's thread CPU seconds.
    fn time(&mut self) -> f64 {
        let mut fastest = f64::INFINITY;
        for _ in 0..PARTS {
            let cpu0 = thread_cpu_s();
            black_box(self.run());
            fastest = fastest.min(thread_cpu_s() - cpu0);
        }
        fastest * PARTS as f64
    }

    /// Replays the program [`REPLAYS`] times at every width; returns
    /// the written-cell count so the work cannot be elided.
    fn run(&mut self) -> u64 {
        let mut events = 0;
        for _ in 0..REPLAYS {
            for &width in &WIDTHS {
                for i in 0..self.program.len() {
                    let op = black_box(self.program[i]);
                    events += self.op(op, width);
                }
            }
        }
        events
    }

    /// Executes `op` over the first `width` words of every plane, with
    /// the zipped word loops the simulator's kernels use.
    fn op(&mut self, op: Op, width: usize) -> u64 {
        let (p, scratch) = self.words[self.base..].split_at_mut(TILE);
        let (carry, out) = scratch.split_at_mut(MAX_BLOCKS);
        let mut events = 0u64;
        match op {
            Op::Add(a, b) | Op::Sub(a, b) => {
                let sub = matches!(op, Op::Sub(..));
                carry.fill(0);
                for plane in 0..PLANES {
                    let (ar, br) = rows(p, a, b, plane, width);
                    for ((bref, cref), &av) in br.iter_mut().zip(carry.iter_mut()).zip(ar) {
                        let (bv, cv) = (*bref, *cref);
                        let t = av ^ bv;
                        let t1 = av ^ cv;
                        let extra = if sub { t1 & t } else { t1 & !t };
                        events += u64::from(t1.count_ones()) + u64::from(extra.count_ones());
                        *bref = t ^ cv;
                        *cref = if sub {
                            (av & !bv) | (cv & !t)
                        } else {
                            (av & bv) | (cv & t)
                        };
                    }
                }
            }
            Op::Xor(a, b, r) | Op::And(a, b, r) => {
                let xor = matches!(op, Op::Xor(..));
                for plane in 0..PLANES {
                    let ar = &p[at(a, plane)..][..width];
                    let br = &p[at(b, plane)..][..width];
                    for ((o, &av), &bv) in out.iter_mut().zip(ar).zip(br) {
                        *o = if xor { av ^ bv } else { av & bv };
                        events += u64::from(o.count_ones());
                    }
                    p[at(r, plane)..][..width].copy_from_slice(&out[..width]);
                }
            }
            Op::Shr(f, k) => {
                for plane in 0..PLANES - k {
                    let src = at(f, plane + k);
                    p.copy_within(src..src + width, at(f, plane));
                }
                for plane in PLANES - k..PLANES {
                    for w in &mut p[at(f, plane)..][..width] {
                        *w = !*w;
                    }
                }
            }
            Op::Count(f) => {
                for plane in 0..PLANES {
                    events += p[at(f, plane)..][..width]
                        .iter()
                        .map(|w| u64::from(w.count_ones()))
                        .sum::<u64>();
                }
            }
        }
        events
    }
}

/// Words `0..width` of `plane` of the distinct fields `src` and `dst`.
fn rows(p: &mut [u64], src: usize, dst: usize, plane: usize, width: usize) -> (&[u64], &mut [u64]) {
    let (s, d) = (at(src, plane), at(dst, plane));
    if s < d {
        let (lo, hi) = p.split_at_mut(d);
        (&lo[s..s + width], &mut hi[..width])
    } else {
        let (lo, hi) = p.split_at_mut(s);
        (&hi[..width], &mut lo[d..d + width])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_the_same_reference() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.program.len(), OPS);
        assert_eq!(a.run(), b.run());
        assert_eq!(
            a.words[a.base..a.base + TILE],
            b.words[b.base..b.base + TILE]
        );
    }

    #[test]
    fn scale_is_the_reference_over_the_runs_around_the_work() {
        for threads in [1, 2] {
            let mut speed = HostSpeed::start(threads);
            let scale = speed.scale();
            let mean = 0.5 * (speed.runs_s[0] + speed.runs_s[1]);
            assert!(scale > 0.0 && (scale * mean - REFERENCE_CPU_S).abs() < 1e-12);
            assert_eq!(speed.scales, [scale]);
        }
    }
}
