//! Async multi-tenant softmax serving with continuous wave batching.
//!
//! [`SoftmaxServer`] fronts one [`ApSoftmax`] device model with a
//! bounded submission queue and a pool of host worker threads:
//!
//! ```text
//!  clients ──▶ submission queue ──▶ wave packing ──▶ workers
//!  submit()     bounded ring         admission:       persistent
//!  try_submit()  (backpressure:       claim shard      TileState,
//!                 block or            tiles, pack       resident plan
//!                 QueueFull)          concurrent        replay; idle
//!                                     requests into     workers help
//!                                     one device wave   with chunks
//! ```
//!
//! *Continuous* batching: admission runs at every submission and every
//! completion, so a new wave forms the moment shard tiles free up —
//! there is no epoch barrier between waves. The admission policy is the
//! device model's own shard-partition machinery: a request needs
//! `min(shards, tiles)` tiles (an oversized request — more shards than
//! the grid — admits alone and waves internally, exactly as
//! [`softmap_ap::device::wave_makespan`] schedules it), and the
//! device-time ledger is a [`TileClocks`] greedy least-loaded schedule
//! over per-tile virtual clocks, from which [`ServeStats`] reports the
//! simulated makespan and tile-occupancy ratio.
//!
//! Requests are **bit-exact** versus the non-serving path: workers
//! execute the same cached plans through [`ApSoftmax`]. A long request
//! picked while a worker is idle replays as one chunk of shards per
//! worker (`mapping::fanout`), which idle workers may claim: a lone
//! long request spreads over an idle server, no work changes threads
//! under load, and no thread is created after [`SoftmaxServer::new`].
//! Configured shapes are precompiled via [`ApSoftmax::warmup`]; the
//! steady-state submit → execute → collect loop performs zero heap
//! allocations (asserted by the counting-allocator test). A panic fails
//! its request alone ([`CoreError::Panicked`]); the worker continues
//! afresh.
//!
//! [`ServeConfig`] is the whole configuration: worker threads
//! (default: available parallelism), queue depth (default 256), shapes
//! to precompile, and whether idle workers help with shard chunks.
//!
//! # Examples
//!
//! ```
//! use softmap::{ApSoftmax, ServeConfig, SoftmaxServer};
//! use softmap_softmax::PrecisionConfig;
//!
//! let mapping = ApSoftmax::new(PrecisionConfig::paper_best())?;
//! let server = SoftmaxServer::new(mapping, ServeConfig::default())?;
//! let a = server.submit(&[0.0, -0.5, -1.0, -2.0])?;
//! let b = server.submit(&[0.0, -3.0])?;
//! let run_a = a.wait()?;
//! let run_b = b.wait()?;
//! assert_eq!(run_a.codes.len(), 4);
//! assert_eq!(run_b.codes.len(), 2);
//! assert!(server.stats().completed >= 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use softmap_ap::device::TileClocks;

use crate::mapping::fanout::ShardJob;
use crate::{lock, wait, ApSoftmax, ApSoftmaxRun, CacheStats, CoreError, TileState};

/// Construction-time configuration for a [`SoftmaxServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` (the default) uses the host's available
    /// parallelism.
    pub workers: usize,
    /// Submission-queue depth — the bound on in-flight requests
    /// (clamped to at least 1; default 256). Submissions beyond it
    /// block, or fail with [`CoreError::QueueFull`] through
    /// [`SoftmaxServer::try_submit`].
    pub queue_depth: usize,
    /// Vector lengths to precompile at startup ([`ApSoftmax::warmup`]),
    /// so first-sight traffic replays instead of compiling.
    pub warmup_shapes: Vec<usize>,
    /// Let idle workers take this server's shard chunks (default
    /// `true`): a sharded replay picked while a worker is idle splits
    /// into one chunk per worker for idle workers to claim. `false` (and
    /// a busy server) runs every request as one chunk; only tests set
    /// it, as the one-chunk baseline.
    pub shard_parallel: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 256,
            warmup_shapes: Vec::new(),
            shard_parallel: true,
        }
    }
}

/// Serving counters plus the device-time ledger, from
/// [`SoftmaxServer::stats`]. All cycle quantities are *device-model*
/// time (host-invariant), not host wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub queued: u64,
    /// Requests executed to completion (including failed ones).
    pub completed: u64,
    /// Device waves formed by the admission scheduler.
    pub waves_formed: u64,
    /// Requests that shared a wave with an earlier admission (the
    /// continuous-batching win: `admitted - waves_formed`).
    pub coalesced: u64,
    /// Submissions that found the queue at its bound.
    pub backpressure: u64,
    /// Busy tile-cycles scheduled onto the grid (Σ request latency ×
    /// tiles claimed).
    pub busy_cycles: u64,
    /// Device-model makespan: the latest per-tile virtual clock.
    pub makespan_cycles: u64,
    /// Tiles in the device grid.
    pub tiles: u64,
    /// Shard chunks idle workers claimed from others' requests.
    pub helped_chunks: u64,
}

impl ServeStats {
    /// Tile-occupancy ratio of the schedule so far:
    /// `busy / (makespan × tiles)`, in `(0, 1]` once anything ran.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let denom = self.makespan_cycles.saturating_mul(self.tiles);
        if denom == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / denom as f64
        }
    }
}

impl core::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} queued, {} completed, {} waves ({} coalesced, {} backpressure), \
             occupancy {:.2} over {} tiles, {} helped chunks",
            self.queued,
            self.completed,
            self.waves_formed,
            self.coalesced,
            self.backpressure,
            self.occupancy(),
            self.tiles,
            self.helped_chunks
        )
    }
}

/// Request lifecycle inside the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum SlotStatus {
    /// Unused; on the free ring.
    #[default]
    Free,
    /// Submitted, waiting for shard tiles.
    Pending,
    /// Packed into the current wave, waiting for a worker.
    Admitted,
    /// Executing on a worker.
    Running,
    /// Finished; waiting for its [`Ticket`] to collect.
    Done,
}

/// One in-flight request. Slots (and their buffers) are reused across
/// requests — the steady-state hot loop allocates nothing.
#[derive(Debug, Default)]
struct Slot {
    /// Reuse guard: a [`Ticket`] only matches the submission it came
    /// from.
    seq: u64,
    status: SlotStatus,
    len: usize,
    shards: usize,
    codes: Vec<i64>,
    run: ApSoftmaxRun,
    err: Option<CoreError>,
    /// The ticket was dropped uncollected; the worker frees the slot
    /// at completion.
    abandoned: bool,
}

/// Everything behind the queue mutex.
#[derive(Debug)]
struct QueueState {
    slots: Vec<Slot>,
    free: VecDeque<usize>,
    pending: VecDeque<usize>,
    admitted: VecDeque<usize>,
    /// Shard tiles claimed by admitted/running requests.
    tiles_claimed: usize,
    /// Device-time ledger: greedy least-loaded per-tile virtual
    /// clocks, fed each completed request's `latency_cycles`.
    clocks: TileClocks,
    shutdown: bool,
    next_seq: u64,
    queued: u64,
    completed: u64,
    waves_formed: u64,
    coalesced: u64,
    backpressure: u64,
    /// Scratch for [`ApSoftmax::shard_count_into`] at submission.
    scratch_ranges: Vec<(usize, usize)>,
    /// Running requests' jobs, whose chunks idle workers may claim.
    posted: Vec<Arc<ShardJob>>,
    /// Workers asleep on `work_cv`.
    idle: usize,
    helped_chunks: u64,
}

impl QueueState {
    /// Continuous-batching admission: first-fit scan of the pending
    /// ring, claiming `min(shards, tiles)` tiles per request. Runs at
    /// every submission and completion (the moment tiles free up), so
    /// waves form continuously. One call that admits anything is one
    /// device wave; every admission beyond the first coalesced into it.
    fn admit(&mut self, tiles: usize, work_cv: &Condvar) {
        let mut admitted_now: u64 = 0;
        let mut i = 0;
        while i < self.pending.len() {
            let idx = self.pending[i];
            let need = self.slots[idx].shards.clamp(1, tiles);
            if self.tiles_claimed + need <= tiles {
                self.tiles_claimed += need;
                self.pending.remove(i);
                self.slots[idx].status = SlotStatus::Admitted;
                self.admitted.push_back(idx);
                admitted_now += 1;
            } else {
                i += 1;
            }
        }
        if admitted_now > 0 {
            self.waves_formed += 1;
            self.coalesced += admitted_now - 1;
            if admitted_now == 1 {
                work_cv.notify_one();
            } else {
                work_cv.notify_all();
            }
        }
    }
}

/// State shared between the server handle, its workers, and tickets.
#[derive(Debug)]
struct Shared {
    mapping: ApSoftmax,
    device_tiles: usize,
    shard_parallel: bool,
    state: Mutex<QueueState>,
    /// Admitted work is available.
    work_cv: Condvar,
    /// A request completed.
    done_cv: Condvar,
    /// A queue slot freed up.
    space_cv: Condvar,
}

/// A pending result from [`SoftmaxServer::submit`] /
/// [`SoftmaxServer::try_submit`]. Collect it with [`Ticket::wait`] or
/// the allocation-free [`Ticket::wait_into`]; dropping it uncollected
/// abandons the request (it still executes, then its slot is
/// reclaimed).
#[derive(Debug)]
pub struct Ticket {
    shared: Arc<Shared>,
    slot: usize,
    seq: u64,
    collected: bool,
}

impl Ticket {
    /// Blocks until the request completes and copies its run into
    /// `run`'s buffers (allocation-free when `run` is warm at the
    /// request's length).
    ///
    /// # Errors
    ///
    /// The request's execution error, if it failed; `run` is untouched
    /// then.
    pub fn wait_into(mut self, run: &mut ApSoftmaxRun) -> Result<(), CoreError> {
        let shared = Arc::clone(&self.shared);
        let mut q = lock(&shared.state);
        loop {
            let slot = &q.slots[self.slot];
            if slot.seq == self.seq && slot.status == SlotStatus::Done {
                break;
            }
            q = wait(&shared.done_cv, q);
        }
        self.collected = true;
        let slot = &mut q.slots[self.slot];
        let err = slot.err.take();
        if err.is_none() {
            copy_run(run, &slot.run);
        }
        slot.status = SlotStatus::Free;
        let idx = self.slot;
        q.free.push_back(idx);
        drop(q);
        shared.space_cv.notify_one();
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Blocks until the request completes and returns its run.
    ///
    /// # Errors
    ///
    /// As [`Ticket::wait_into`].
    pub fn wait(self) -> Result<ApSoftmaxRun, CoreError> {
        let mut run = ApSoftmaxRun::default();
        self.wait_into(&mut run)?;
        Ok(run)
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.collected {
            return;
        }
        let mut q = lock(&self.shared.state);
        let slot = &mut q.slots[self.slot];
        if slot.seq != self.seq {
            return;
        }
        match slot.status {
            SlotStatus::Done => {
                slot.status = SlotStatus::Free;
                slot.err = None;
                let idx = self.slot;
                q.free.push_back(idx);
                drop(q);
                self.shared.space_cv.notify_one();
            }
            SlotStatus::Pending | SlotStatus::Admitted | SlotStatus::Running => {
                slot.abandoned = true;
            }
            SlotStatus::Free => {}
        }
    }
}

/// Field-by-field copy reusing `dst`'s buffer capacities (`clone_from`
/// on the `Vec`s) — the collection half of the zero-alloc contract.
fn copy_run(dst: &mut ApSoftmaxRun, src: &ApSoftmaxRun) {
    dst.codes.clone_from(&src.codes);
    dst.vapprox.clone_from(&src.vapprox);
    dst.steps.clone_from(&src.steps);
    dst.frac_bits = src.frac_bits;
    dst.sum = src.sum;
    dst.total = src.total;
    dst.rows = src.rows;
    dst.cols_used = src.cols_used;
    dst.shards = src.shards;
    dst.waves = src.waves;
    dst.latency_cycles = src.latency_cycles;
    dst.reduction = src.reduction;
}

/// The serving layer: a bounded multi-tenant submission queue over one
/// device model, with continuous wave batching and shard-parallel host
/// execution (see the module docs).
///
/// Dropping the server shuts it down: workers drain every accepted
/// request, then exit. Outstanding [`Ticket`]s stay collectable.
#[derive(Debug)]
pub struct SoftmaxServer {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl SoftmaxServer {
    /// Builds the server and spawns its workers, after warming the
    /// plan cache with `config.warmup_shapes`.
    ///
    /// # Errors
    ///
    /// A warmup compile error, or [`CoreError::BadWorkload`] if a
    /// worker thread cannot be spawned.
    pub fn new(mapping: ApSoftmax, config: ServeConfig) -> Result<Self, CoreError> {
        mapping.warmup(&config.warmup_shapes)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        let depth = config.queue_depth.max(1);
        let tiles = mapping.device().tiles;
        let mut slots = Vec::new();
        slots.resize_with(depth, Slot::default);
        let mut free = VecDeque::with_capacity(depth);
        free.extend(0..depth);
        let state = QueueState {
            slots,
            free,
            pending: VecDeque::with_capacity(depth),
            admitted: VecDeque::with_capacity(depth),
            tiles_claimed: 0,
            clocks: TileClocks::new(tiles),
            shutdown: false,
            next_seq: 0,
            queued: 0,
            completed: 0,
            waves_formed: 0,
            coalesced: 0,
            backpressure: 0,
            scratch_ranges: Vec::new(),
            posted: Vec::with_capacity(workers),
            idle: 0,
            helped_chunks: 0,
        };
        let shared = Arc::new(Shared {
            mapping,
            device_tiles: tiles,
            shard_parallel: config.shard_parallel,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            space_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let sh = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("softmap-serve-{w}"))
                .spawn(move || worker_loop(&sh, workers));
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    shutdown(&shared, &mut handles);
                    return Err(CoreError::BadWorkload(format!(
                        "failed to spawn serving worker: {e}"
                    )));
                }
            }
        }
        Ok(Self { shared, handles })
    }

    /// Submits one request, blocking while the queue is at its bound.
    /// The scores are quantized through the scalar spec exactly as
    /// [`ApSoftmax::execute_floats`] quantizes them.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyInput`] for an empty slice,
    /// [`CoreError::NonFinite`] for a NaN score or an all-−∞ row (see
    /// [`softmap_softmax::IntSoftmax::check_scores`]), a
    /// shard-partition error for lengths the device cannot hold, or
    /// [`CoreError::BadWorkload`] after shutdown.
    pub fn submit(&self, scores: &[f64]) -> Result<Ticket, CoreError> {
        self.submit_inner(scores, true)
    }

    /// Non-blocking [`SoftmaxServer::submit`].
    ///
    /// # Errors
    ///
    /// [`CoreError::QueueFull`] when the queue is at its bound;
    /// otherwise as [`SoftmaxServer::submit`].
    pub fn try_submit(&self, scores: &[f64]) -> Result<Ticket, CoreError> {
        self.submit_inner(scores, false)
    }

    fn submit_inner(&self, scores: &[f64], block: bool) -> Result<Ticket, CoreError> {
        if scores.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let shared = &self.shared;
        shared.mapping.spec().check_scores(scores)?;
        let mut q = lock(&shared.state);
        if q.shutdown {
            return Err(CoreError::BadWorkload("serving queue is shut down".into()));
        }
        if q.free.is_empty() {
            q.backpressure += 1;
            if !block {
                return Err(CoreError::QueueFull);
            }
            while q.free.is_empty() {
                if q.shutdown {
                    return Err(CoreError::BadWorkload("serving queue is shut down".into()));
                }
                q = wait(&shared.space_cv, q);
            }
        }
        let idx = q.free.pop_front().expect("free ring non-empty");
        // Quantize into the slot's warm buffer and size the request in
        // shard tiles — both allocation-free in steady state.
        let mut codes = std::mem::take(&mut q.slots[idx].codes);
        shared.mapping.spec().quantize_into(scores, &mut codes);
        let mut ranges = std::mem::take(&mut q.scratch_ranges);
        let counted = shared.mapping.shard_count_into(codes.len(), &mut ranges);
        q.scratch_ranges = ranges;
        q.slots[idx].codes = codes;
        let shards = match counted {
            Ok(s) => s,
            Err(e) => {
                q.free.push_front(idx);
                return Err(e);
            }
        };
        let seq = q.next_seq;
        q.next_seq += 1;
        let slot = &mut q.slots[idx];
        slot.seq = seq;
        slot.status = SlotStatus::Pending;
        slot.len = scores.len();
        slot.shards = shards;
        slot.err = None;
        slot.abandoned = false;
        q.queued += 1;
        q.pending.push_back(idx);
        q.admit(shared.device_tiles, &shared.work_cv);
        Ok(Ticket {
            shared: Arc::clone(shared),
            slot: idx,
            seq,
            collected: false,
        })
    }

    /// Serves a whole batch through the queue: pipelined non-blocking
    /// submissions, collecting the oldest outstanding ticket whenever
    /// the queue pushes back. Results are in input order.
    ///
    /// # Errors
    ///
    /// The first submission or execution error; remaining tickets are
    /// still drained first.
    pub fn execute_batch(&self, batch: &[Vec<f64>]) -> Result<Vec<ApSoftmaxRun>, CoreError> {
        let mut results: Vec<ApSoftmaxRun> = Vec::new();
        results.resize_with(batch.len(), ApSoftmaxRun::default);
        let mut tickets: VecDeque<(usize, Ticket)> = VecDeque::new();
        let mut first_err: Option<CoreError> = None;
        for (i, scores) in batch.iter().enumerate() {
            if first_err.is_some() {
                break;
            }
            loop {
                match self.try_submit(scores) {
                    Ok(t) => {
                        tickets.push_back((i, t));
                        break;
                    }
                    Err(CoreError::QueueFull) => {
                        if let Some((j, t)) = tickets.pop_front() {
                            if let Err(e) = t.wait_into(&mut results[j]) {
                                first_err.get_or_insert(e);
                            }
                        } else {
                            // Queue smaller than one submission's worth
                            // of outstanding work: fall back to the
                            // blocking path.
                            match self.submit(scores) {
                                Ok(t) => {
                                    tickets.push_back((i, t));
                                }
                                Err(e) => {
                                    first_err.get_or_insert(e);
                                }
                            }
                            break;
                        }
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                        break;
                    }
                }
            }
        }
        for (j, t) in tickets {
            if let Err(e) = t.wait_into(&mut results[j]) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }

    /// The serving counters and device-time ledger.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let q = lock(&self.shared.state);
        ServeStats {
            queued: q.queued,
            completed: q.completed,
            waves_formed: q.waves_formed,
            coalesced: q.coalesced,
            backpressure: q.backpressure,
            busy_cycles: q.clocks.busy(),
            makespan_cycles: q.clocks.makespan(),
            tiles: q.clocks.tiles() as u64,
            helped_chunks: q.helped_chunks,
        }
    }

    /// The served mapping's plan-cache counters
    /// ([`ApSoftmax::cache_stats`]); the serving counters are
    /// [`SoftmaxServer::stats`].
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.mapping.cache_stats()
    }

    /// The served device model.
    #[must_use]
    pub fn mapping(&self) -> &ApSoftmax {
        &self.shared.mapping
    }
}

impl Drop for SoftmaxServer {
    fn drop(&mut self) {
        shutdown(&self.shared, &mut self.handles);
    }
}

/// Flags shutdown, wakes everyone, and joins the workers (which drain
/// every accepted request first).
fn shutdown(shared: &Shared, handles: &mut Vec<JoinHandle<()>>) {
    lock(&shared.state).shutdown = true;
    shared.work_cv.notify_all();
    shared.space_cv.notify_all();
    for h in handles.drain(..) {
        let _ = h.join();
    }
}

/// How many admitted entries the shape-affinity scan looks at before
/// settling for the queue head.
const AFFINITY_SCAN: usize = 8;

/// One worker: a persistent [`TileState`] (up to one chunk per worker),
/// pulling admitted requests until shutdown drains the queue. Prefers a
/// request matching the last executed length (plan-slot and buffer
/// affinity) from the front of the admitted ring; with none admitted,
/// helps with a posted chunk before it sleeps.
fn worker_loop(shared: &Shared, workers: usize) {
    let mut tile = TileState::with_chunks(workers);
    let mut run = ApSoftmaxRun::default();
    let mut last_len = 0usize;
    // Rouses idle workers once a posted job opens a phase (after their
    // last look, which holds the queue lock).
    let wake = || {
        drop(lock(&shared.state));
        shared.work_cv.notify_all();
    };
    loop {
        let (idx, shards, helped) = {
            let mut q = lock(&shared.state);
            loop {
                if let Some(pos) = pick_admitted(&q, last_len) {
                    let idx = q.admitted.remove(pos).expect("picked in range");
                    // Split into chunks only if some worker is idle to help.
                    let helped = shared.shard_parallel && q.idle > 0;
                    if helped {
                        q.posted.push(Arc::clone(tile.job()));
                    }
                    let slot = &mut q.slots[idx];
                    slot.status = SlotStatus::Running;
                    std::mem::swap(&mut slot.codes, &mut *tile.job().codes());
                    std::mem::swap(&mut slot.run, &mut run);
                    break (idx, slot.shards, helped);
                }
                if q.shutdown && q.pending.is_empty() && q.admitted.is_empty() {
                    return;
                }
                // Robustness: re-run admission before sleeping, so a
                // missed wake-up cannot strand pending work.
                q.admit(shared.device_tiles, &shared.work_cv);
                if !q.admitted.is_empty() {
                    continue;
                }
                let help = q
                    .posted
                    .iter()
                    .find_map(|job| Some((Arc::clone(job), job.claim(true)?)));
                if let Some((job, claim)) = help {
                    q.helped_chunks += 1;
                    drop(q);
                    job.help(&shared.mapping, claim);
                    q = lock(&shared.state);
                } else {
                    q.idle += 1;
                    q = wait(&shared.work_cv, q);
                    q.idle -= 1;
                }
            }
        };

        let wake = helped.then_some(&wake as &dyn Fn());
        let res = catch_unwind(AssertUnwindSafe(|| {
            shared.mapping.execute_posted(&mut tile, &mut run, wake)
        }))
        .unwrap_or_else(|_| {
            // Keeps helpers off the job the fresh state below replaces.
            tile.job().close();
            Err(CoreError::Panicked)
        });
        let panicked = res == Err(CoreError::Panicked);

        let mut q = lock(&shared.state);
        q.posted.retain(|job| !Arc::ptr_eq(job, tile.job()));
        let need = shards.clamp(1, shared.device_tiles);
        q.tiles_claimed -= need;
        q.completed += 1;
        if res.is_ok() {
            let latency = run.latency_cycles;
            q.clocks.assign(shards, latency);
        }
        let slot = &mut q.slots[idx];
        std::mem::swap(&mut slot.codes, &mut *tile.job().codes());
        std::mem::swap(&mut slot.run, &mut run);
        last_len = slot.len;
        slot.err = res.err();
        if slot.abandoned {
            slot.status = SlotStatus::Free;
            slot.err = None;
            q.free.push_back(idx);
            q.admit(shared.device_tiles, &shared.work_cv);
            drop(q);
            shared.space_cv.notify_one();
        } else {
            slot.status = SlotStatus::Done;
            q.admit(shared.device_tiles, &shared.work_cv);
            drop(q);
            shared.done_cv.notify_all();
        }
        if panicked {
            tile = TileState::with_chunks(workers);
        }
    }
}

/// Position in the admitted ring of the next request for a worker that
/// last executed `last_len`: the first of the front [`AFFINITY_SCAN`]
/// entries matching that length, else the front.
fn pick_admitted(q: &QueueState, last_len: usize) -> Option<usize> {
    if q.admitted.is_empty() {
        return None;
    }
    for pos in 0..q.admitted.len().min(AFFINITY_SCAN) {
        if q.slots[q.admitted[pos]].len == last_len {
            return Some(pos);
        }
    }
    Some(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::fanout::tests::PANIC_LEN;
    use crate::Layout;
    use softmap_ap::{ApError, DeviceConfig, ExecBackend};
    use softmap_softmax::{PrecisionConfig, SumMode};
    use std::sync::atomic::Ordering;

    fn scores(len: usize, salt: usize) -> Vec<f64> {
        (0..len)
            .map(|i| -(((i * 7 + salt * 13) % 97) as f64) * 0.07)
            .collect()
    }

    /// The run an inline replay of `row` produces on a fresh mapping.
    fn inline(mapping: &ApSoftmax, row: &[f64]) -> ApSoftmaxRun {
        let mut state = TileState::new();
        let mut run = ApSoftmaxRun::default();
        mapping
            .execute_floats_into(&mut state, row, &mut run)
            .unwrap();
        mapping
            .execute_floats_into(&mut state, row, &mut run)
            .unwrap();
        run
    }

    fn assert_exact(got: &ApSoftmaxRun, want: &ApSoftmaxRun, what: &str) {
        assert_eq!(got.codes, want.codes, "{what}: codes");
        assert_eq!(got.vapprox, want.vapprox, "{what}: vapprox");
        assert_eq!(got.steps, want.steps, "{what}: steps");
        assert_eq!(got.total, want.total, "{what}: total");
        assert_eq!(got.latency_cycles, want.latency_cycles, "{what}: latency");
    }

    /// The queue invariants once every ticket is collected.
    fn assert_settled(server: &SoftmaxServer, completed: u64) {
        assert_eq!(
            lock(&server.shared.state).tiles_claimed,
            0,
            "tile claims released"
        );
        let stats = server.stats();
        assert_eq!(stats.completed, completed, "{stats}");
        assert_eq!(
            stats.waves_formed + stats.coalesced,
            stats.completed,
            "{stats}"
        );
    }

    #[test]
    fn non_finite_scores_are_rejected_at_submission() {
        let mapping = ApSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let server = SoftmaxServer::new(mapping.clone(), ServeConfig::default()).unwrap();
        let nan_probe = [0.0, f64::NAN, -3.0, -4.0];
        assert_eq!(
            server.submit(&nan_probe).unwrap_err(),
            CoreError::NonFinite(1)
        );
        let all_neg_inf = [f64::NEG_INFINITY; 8];
        assert_eq!(
            server.try_submit(&all_neg_inf).unwrap_err(),
            CoreError::NonFinite(0)
        );
        // The rejections took no slot; a finite row still serves exactly.
        let row = [0.0, f64::NEG_INFINITY, -3.0, -4.0];
        let mut run = ApSoftmaxRun::default();
        server.submit(&row).unwrap().wait_into(&mut run).unwrap();
        assert_exact(&run, &inline(&mapping, &row), "-inf row");
        assert_eq!(server.stats().completed, 1);
    }

    #[test]
    fn a_panicking_request_fails_alone_and_the_server_keeps_serving() {
        let mapping = || {
            ApSoftmax::new(PrecisionConfig::paper_best())
                .unwrap()
                .with_autotune(false)
                .with_backend(ExecBackend::FastWord)
                .with_device(DeviceConfig::new(4, 8))
        };
        // 60 scores run in 4 shards; the hook panics the first chunk of
        // a 60-score vector that runs, on its owner or on a helper.
        let lens = [6usize, 44, 60, 20, 44];
        let cfg = ServeConfig {
            workers: 2,
            queue_depth: 8,
            warmup_shapes: lens.to_vec(),
            shard_parallel: true,
        };
        let server = SoftmaxServer::new(mapping(), cfg).unwrap();
        let reference = mapping();
        PANIC_LEN[1].store(60, Ordering::Relaxed);
        let tickets: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(salt, &len)| server.submit(&scores(len, salt)).unwrap())
            .collect();
        for (salt, (&len, ticket)) in lens.iter().zip(tickets).enumerate() {
            let got = ticket.wait();
            if len == 60 {
                let err = got.unwrap_err();
                assert_eq!(err, CoreError::Panicked);
            } else {
                let want = inline(&reference, &scores(len, salt));
                assert_exact(&got.unwrap(), &want, &format!("len {len}"));
            }
        }
        assert_eq!(PANIC_LEN[1].load(Ordering::Relaxed), 0, "the hook fired");
        assert_settled(&server, lens.len() as u64);
        // Both workers keep serving, sharded requests included.
        for salt in 0..4 {
            let got = server.submit(&scores(60, salt)).unwrap().wait().unwrap();
            assert_exact(
                &got,
                &inline(&reference, &scores(60, salt)),
                "after the panic",
            );
        }
        assert_settled(&server, lens.len() as u64 + 4);
    }

    #[test]
    fn a_panicking_compile_fails_alone_and_later_compiles_serve() {
        // No warm-up, so every shape compiles on its request's worker:
        // the hook panics the first chunk of the 50-score vector inside
        // its compile, while the compile lock is held. No other test
        // runs a vector of that length.
        let mapping = || {
            ApSoftmax::new(PrecisionConfig::paper_best())
                .unwrap()
                .with_autotune(false)
                .with_device(DeviceConfig::new(4, 8))
        };
        let cfg = ServeConfig {
            workers: 2,
            queue_depth: 8,
            warmup_shapes: Vec::new(),
            shard_parallel: true,
        };
        let server = SoftmaxServer::new(mapping(), cfg).unwrap();
        let reference = mapping();
        PANIC_LEN[2].store(50, Ordering::Relaxed);
        let err = server.submit(&scores(50, 0)).unwrap().wait().unwrap_err();
        assert_eq!(err, CoreError::Panicked);
        assert_eq!(PANIC_LEN[2].load(Ordering::Relaxed), 0, "the hook fired");
        // Every later compile serves: a new sharded shape, the shape
        // whose compile panicked, and a one-shard shape.
        for (salt, len) in [36usize, 50, 6].into_iter().enumerate() {
            let got = server.submit(&scores(len, salt)).unwrap().wait().unwrap();
            let want = inline(&reference, &scores(len, salt));
            assert_exact(&got, &want, &format!("len {len} after the panic"));
        }
        assert_settled(&server, 4);
        // The panicked compile cached nothing.
        assert_eq!(
            server.cache_stats().compiles,
            reference.cache_stats().compiles
        );
    }

    #[test]
    fn a_failing_sharded_request_errors_and_the_next_replays_exactly() {
        // The executor's failing vector, served: a 14-bit exact sum that
        // a flat vector overflows at the combine (8 re-staged shards)
        // or in a chunk's replay (4 resident shards).
        let cfg = PrecisionConfig::new(6, 0, 8).with_sum_mode(SumMode::Exact);
        for (device, len) in [
            (DeviceConfig::new(4, 64), 512),
            (DeviceConfig::new(4, 512), 2048),
        ] {
            let mapping = || {
                ApSoftmax::new(cfg)
                    .unwrap()
                    .with_autotune(false)
                    .with_backend(ExecBackend::FastWord)
                    .with_layout(Layout::OneWordPerRow)
                    .with_device(device)
            };
            let server = SoftmaxServer::new(
                mapping(),
                ServeConfig {
                    workers: 2,
                    queue_depth: 4,
                    warmup_shapes: Vec::new(),
                    shard_parallel: true,
                },
            )
            .unwrap();
            let peaked: Vec<f64> = (0..len).map(|i| if i == 0 { 0.0 } else { -8.0 }).collect();
            let want = inline(&mapping(), &peaked);
            // The first peaked request compiles the shape on its worker.
            server.submit(&peaked).unwrap().wait().unwrap();
            let err = server.submit(&vec![0.0; len]).unwrap().wait().unwrap_err();
            assert_eq!(
                err,
                CoreError::Ap(ApError::WidthOverflow {
                    value: 28672,
                    width: 14
                }),
                "{len} scores"
            );
            let got = server.submit(&peaked).unwrap().wait().unwrap();
            assert_exact(&got, &want, &format!("{len} scores after the error"));
            assert_settled(&server, 3);
        }
    }
}
