//! Parallel execution for the homomorphic hot paths.
//!
//! HE workloads here are embarrassingly parallel along two axes: the output
//! cells of a layer and the CRT limbs of each
//! [`crate::crt::CrtCiphertext`]. [`ParExec`] runs an indexed task set over a
//! scoped worker pool (built on `crossbeam::thread::scope`, so tasks may
//! borrow stack data); each worker claims the next unclaimed index from one
//! shared counter, so a slow task delays only the worker that drew it.
//!
//! Determinism contract: `run(n, f)` always returns `f(0), f(1), …, f(n-1)`
//! **in index order**, and every task executes exactly once. Because the
//! homomorphic operations themselves draw no randomness, any computation
//! expressed as independent per-index tasks produces bit-identical output
//! regardless of the worker count or the scheduling interleaving. Paths that
//! *do* need randomness (encryption) fork an independent, index-keyed RNG
//! stream per task — see [`crate::image::EncryptedMap::encrypt_images`].

use hesgx_obs::{counters, Profiler, Recorder};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A scoped, dynamically balanced executor for indexed task sets.
///
/// `threads == 1` runs tasks inline on the calling thread with zero
/// synchronization — the serial fast path the determinism tests compare
/// against.
#[derive(Debug, Clone)]
pub struct ParExec {
    threads: usize,
    recorder: Recorder,
}

impl Default for ParExec {
    /// One worker per available core.
    fn default() -> Self {
        ParExec::new(0)
    }
}

impl ParExec {
    /// Creates an executor with `threads` workers; `0` means one per
    /// available core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        ParExec {
            threads,
            recorder: Recorder::disabled(),
        }
    }

    /// A single-threaded (serial) executor.
    pub fn serial() -> Self {
        ParExec {
            threads: 1,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: each `run` bumps `par.tasks` by
    /// its task count. The counter depends only on the submitted work, never
    /// on the worker count, so it is stable across pool sizes.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), …, f(n-1)` across the pool and returns the results in
    /// index order. Every index is executed exactly once; scheduling only
    /// affects which worker runs which index, never the result vector.
    ///
    /// # Panics
    ///
    /// Propagates the first panicking task.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + Sync,
        F: Fn(usize) -> T + Sync,
    {
        self.recorder.incr(counters::PAR_TASKS, n as u64);
        self.recorder.observe("par.batch", n as u64);
        // Captured on the submitting thread: worker threads have no ambient
        // profiler of their own, so each re-roots at `par.worker[w]` under
        // the caller's tree (the deterministic export merges the workers).
        let profiler = Profiler::current();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            let _scope = profiler.worker_scope(0);
            return (0..n).map(f).collect();
        }
        // The next unclaimed index. `Relaxed`: it publishes no data — results
        // travel through their `OnceLock`s and the scope's joins.
        let next = AtomicUsize::new(0);
        let results: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let profiler = &profiler;
        let run_worker = |w: usize| {
            let _scope = profiler.worker_scope(w);
            loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = results.get(idx) else { break };
                // `fetch_add` hands each index out once: the slot is empty.
                let _ = slot.set(f(idx));
            }
        };
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (1..workers)
                .map(|w| s.spawn(move |_| run_worker(w)))
                .collect();
            run_worker(0);
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        })
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        // Every index ran: workers stop only past `n`, and all have joined.
        results
            .into_iter()
            .filter_map(OnceLock::into_inner)
            .collect()
    }

    /// Fallible variant of [`ParExec::run`]: collects `Ok` values in index
    /// order, or returns the error of the **lowest-indexed** failing task —
    /// the same error a serial left-to-right loop would surface.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed task error, if any.
    pub fn try_run<T, E, F>(&self, n: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send + Sync,
        E: Send + Sync,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        let mut out = Vec::with_capacity(n);
        for result in self.run(n, f) {
            out.push(result?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_in_index_order_every_pool_size() {
        let expected: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 7, 8] {
            let pool = ParExec::new(threads);
            assert_eq!(pool.run(257, |i| i * 3 + 1), expected, "{threads} threads");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let n = 1000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = ParExec::new(4);
        pool.run(n, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_thread_request_uses_available_cores() {
        assert!(ParExec::new(0).threads() >= 1);
        assert_eq!(ParExec::serial().threads(), 1);
    }

    #[test]
    fn handles_n_smaller_than_pool() {
        let pool = ParExec::new(8);
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 9), vec![9]);
    }

    #[test]
    fn try_run_reports_lowest_index_error() {
        let pool = ParExec::new(4);
        let err = pool
            .try_run(100, |i| if i % 7 == 3 { Err(i) } else { Ok(i) })
            .unwrap_err();
        assert_eq!(err, 3, "serial order error wins");
        let ok: Result<Vec<usize>, usize> = pool.try_run(10, Ok);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recorder_counts_tasks_independent_of_pool_size() {
        for threads in [1, 2, 4] {
            let rec = Recorder::enabled();
            let pool = ParExec::new(threads).with_recorder(rec.clone());
            pool.run(100, |i| i);
            pool.run(28, |i| i);
            assert_eq!(rec.counter(counters::PAR_TASKS), 128, "{threads} threads");
        }
    }

    #[test]
    fn stealing_covers_skewed_workloads() {
        // Worker 0's initial range holds all the slow tasks; the others must
        // steal them for the run to finish. Correctness (not timing) check.
        let pool = ParExec::new(4);
        let out = pool.run(64, |i| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }
}
