//! Host-thread fan-out utilities.
//!
//! A deployed SoftmAP accelerator runs many independent tiles in
//! parallel; on the host side, every layer of this workspace (the AP
//! simulator's batch driver, the scalar spec's batched entry points,
//! the LLM harness's attention rows) fans independent jobs across OS
//! threads the same way. This crate is that one shared primitive —
//! dependency-free so the scalar-specification crates do not have to
//! link the full simulator to use it.
//!
//! The scheduler is a work-stealing index counter over scoped threads
//! (`std::thread::scope`): no locks on the hot path, deterministic
//! input-ordered results, and panics in worker jobs propagate.
//!
//! Two families of entry points:
//!
//! * [`parallel_map`] / [`try_parallel_map`] — stateless jobs,
//! * [`parallel_map_with`] / [`try_parallel_map_with`] — jobs that
//!   share one per-worker state value (built once per thread by an
//!   `init` closure and handed to every job that thread claims). This
//!   is how the AP layers keep one persistent simulated tile per
//!   worker instead of allocating a tile per vector.
//!
//! The fallible variants cancel early: once any job fails, workers
//! stop claiming new indices. Because indices are claimed in order,
//! every index below a failing one has already been claimed and runs
//! to completion, so the error returned is still the lowest-indexed
//! failing item's.
//!
//! # Examples
//!
//! ```
//! let squares = softmap_par::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Number of worker threads used for `jobs` independent tasks: the
/// machine's available parallelism, capped by the job count and at
/// least 1.
#[must_use]
pub fn tile_parallelism(jobs: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    host.min(jobs).max(1)
}

/// Applies `f` to every item on a pool of [`tile_parallelism`] scoped
/// threads, returning results in input order.
///
/// `f` runs concurrently on multiple threads. Panics in `f` propagate
/// to the caller.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, || (), |(), item| f(item))
}

/// [`parallel_map`] with one per-worker state value: each worker
/// thread calls `init` once and passes the state to every job it
/// claims. Results are in input order.
///
/// This is the pooled execution primitive: `init` builds an expensive
/// reusable resource (a simulated AP tile, a scratch arena) and the
/// jobs stream through it, so steady-state batches perform no
/// per-item setup.
///
/// Panics in `init` or `f` propagate to the caller.
pub fn parallel_map_with<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let Ok(out) = run_with(items, tile_parallelism(items.len()), init, |state, item| {
        Ok::<R, std::convert::Infallible>(f(state, item))
    });
    out
}

/// Applies a fallible `f` to every item in parallel, returning the
/// results in input order or the error of the lowest-indexed failing
/// item.
///
/// Cancels early: after the first failure, workers stop claiming new
/// indices (already-claimed jobs run to completion, which is what
/// keeps the lowest-index guarantee exact).
///
/// # Errors
///
/// The first (by input order) error produced by `f`.
pub fn try_parallel_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    try_parallel_map_with(items, || (), |(), item| f(item))
}

/// [`try_parallel_map`] with one per-worker state value (see
/// [`parallel_map_with`]), with the same early-cancel behaviour.
///
/// # Errors
///
/// The first (by input order) error produced by `f`.
pub fn try_parallel_map_with<T, R, E, S, I, F>(items: &[T], init: I, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Result<R, E> + Sync,
{
    run_with(items, tile_parallelism(items.len()), init, f)
}

/// The scheduler behind every entry point: [`try_parallel_map_with`]
/// on `workers` threads, capped by the job count and at least 1. One
/// worker runs the jobs in order on the calling thread and stops at
/// the first error.
fn run_with<T, R, E, S, I, F>(items: &[T], workers: usize, init: I, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Result<R, E> + Sync,
{
    let threads = workers.min(items.len()).max(1);
    if threads <= 1 {
        let mut state = init();
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(f(&mut state, item)?);
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    type WorkerOut<R, E> = (Vec<(usize, R)>, Option<(usize, E)>);
    let per_worker: Vec<WorkerOut<R, E>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    let mut first_err: Option<(usize, E)> = None;
                    while !cancelled.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        match f(&mut state, &items[i]) {
                            Ok(r) => local.push((i, r)),
                            Err(e) => {
                                cancelled.store(true, Ordering::Relaxed);
                                first_err = Some((i, e));
                                break;
                            }
                        }
                    }
                    (local, first_err)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    let mut lowest: Option<(usize, E)> = None;
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(items.len());
    for (local, err) in per_worker {
        if let Some((i, e)) = err {
            if lowest.as_ref().is_none_or(|(j, _)| i < *j) {
                lowest = Some((i, e));
            }
        }
        collected.extend(local);
    }
    if let Some((_, e)) = lowest {
        return Err(e);
    }
    collected.sort_unstable_by_key(|&(i, _)| i);
    Ok(collected.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        assert_eq!(parallel_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(parallel_map(&[9u64], |&x| x + 1), vec![10]);
    }

    #[test]
    fn try_parallel_map_reports_first_error() {
        let items: Vec<u64> = (0..64).collect();
        let r = try_parallel_map(&items, |&x| if x >= 10 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(10));
        let ok = try_parallel_map(&items, |&x| Ok::<_, ()>(x * 2));
        assert_eq!(ok.unwrap()[63], 126);
    }

    #[test]
    fn try_parallel_map_cancels_remaining_jobs() {
        // After the first failure, workers must stop claiming indices:
        // with an early error in a long batch, the executed-job count
        // stays far below the item count (exact on one core, bounded
        // by in-flight claims on many).
        let items: Vec<u64> = (0..10_000).collect();
        let ran = AtomicUsize::new(0);
        let r = try_parallel_map(&items, |&x| {
            ran.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(r, Err(3));
        assert!(
            ran.load(Ordering::Relaxed) < items.len(),
            "failure must cancel the remaining jobs"
        );
    }

    #[test]
    fn try_parallel_map_sequential_path_stops_at_first_error() {
        // On a single worker the cancellation is exact: nothing after
        // the failing index runs.
        let items: Vec<u64> = (0..8).collect();
        let ran = AtomicUsize::new(0);
        let r = run_with(
            &items,
            1,
            || (),
            |(), &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x == 3 {
                    Err(x)
                } else {
                    Ok(x)
                }
            },
        );
        assert_eq!(r, Err(3));
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn threads_env_overrides_parallelism() {
        // More workers than the host has cores: each still builds its
        // own state, and the job count caps the worker count. (The name
        // is kept from when an environment variable was the only way to
        // force this; the scheduler now takes the worker count.)
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let states_for = |workers: usize, jobs: u64| {
            let states = AtomicUsize::new(0);
            let items: Vec<u64> = (0..jobs).collect();
            let out = run_with(
                &items,
                workers,
                || {
                    states.fetch_add(1, Ordering::Relaxed);
                },
                |(), &x| Ok::<_, ()>(x),
            );
            assert_eq!(out.unwrap(), items);
            states.load(Ordering::Relaxed)
        };
        let forced = host + 3;
        assert_eq!(states_for(forced, forced as u64 * 4), forced);
        assert_eq!(states_for(forced, 2), 2, "job count caps the workers");
        assert_eq!(states_for(forced, 0), 1, "no jobs still runs one worker");
    }

    #[test]
    fn parallel_map_with_builds_one_state_per_worker() {
        let states = AtomicUsize::new(0);
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map_with(
            &items,
            || {
                states.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, &x| {
                *acc += 1;
                x + *acc - *acc // result independent of state
            },
        );
        assert_eq!(out, items);
        let built = states.load(Ordering::Relaxed);
        assert_eq!(built, tile_parallelism(items.len()));
    }

    #[test]
    fn try_parallel_map_with_threads_state_through_jobs() {
        // Each worker's state counts its own jobs; the sum of all
        // per-worker counts must equal the item count.
        let total = AtomicUsize::new(0);
        let items: Vec<u64> = (0..33).collect();
        struct Count<'a>(usize, &'a AtomicUsize);
        impl Drop for Count<'_> {
            fn drop(&mut self) {
                self.1.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        let ok: Result<Vec<u64>, ()> = try_parallel_map_with(
            &items,
            || Count(0, &total),
            |c, &x| {
                c.0 += 1;
                Ok(x)
            },
        );
        assert_eq!(ok.unwrap(), items);
        assert_eq!(total.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn tile_parallelism_bounds() {
        assert_eq!(tile_parallelism(0), 1);
        assert_eq!(tile_parallelism(1), 1);
        assert!(tile_parallelism(1 << 20) >= 1);
    }
}
