//! Deterministic parallel sweep engine for the VMP simulator.
//!
//! The experiment harnesses in this workspace (fig. 4 miss-ratio grids,
//! ablations, contention/processor/sharing/clustering sweeps) all share
//! one shape: a list of independent simulation *jobs*, each fully
//! described by its configuration and seed, whose results are reported
//! in a fixed order. This crate runs such a list across OS threads
//! while keeping the output **bit-identical to the sequential run**:
//!
//! * Jobs are pulled from a shared atomic cursor (work-stealing by
//!   index), so threads never idle while work remains.
//! * Each result is returned to its submission slot, so the caller sees
//!   the same `Vec<R>` regardless of thread count or scheduling.
//! * Jobs must therefore be independent and deterministic given their
//!   inputs — which every VMP experiment is, by design: the simulator
//!   is a deterministic discrete-event machine and all randomness flows
//!   from explicit seeds.
//!
//! Thread count resolution order: [`SweepPool::threads`] override, the
//! `VMP_THREADS` environment variable, then available parallelism.
//! With one thread the pool runs jobs inline on the caller's thread —
//! no spawning — which doubles as the reference ordering for the
//! determinism tests.
//!
//! # Examples
//!
//! ```
//! use vmp_sweep::{SweepJob, SweepPool};
//!
//! let jobs: Vec<SweepJob<u64>> = (0..8)
//!     .map(|i| SweepJob::new(format!("job{i}"), i))
//!     .collect();
//! let results = SweepPool::new().threads(4).run(jobs, |job| job.input * 2);
//! assert_eq!(results, (0..8).map(|i| i * 2).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;

pub use csv::CsvTable;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "VMP_THREADS";

/// One unit of sweep work: an input payload plus a human-readable label
/// (used by harnesses for progress lines and result tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJob<T> {
    /// Display label, e.g. `"64KB/512B"` for a fig. 4 grid cell.
    pub label: String,
    /// The job's full input: config, seed, whatever the runner needs.
    pub input: T,
}

impl<T> SweepJob<T> {
    /// Builds a job from a label and its input payload.
    pub fn new(label: impl Into<String>, input: T) -> Self {
        SweepJob { label: label.into(), input }
    }
}

/// A deterministic scoped-thread worker pool.
///
/// `Clone`/`Copy`-free builder: construct with [`SweepPool::new`], set
/// an explicit thread count with [`SweepPool::threads`], then call
/// [`SweepPool::run`] any number of times.
#[derive(Debug, Default)]
pub struct SweepPool {
    threads: Option<NonZeroUsize>,
}

impl SweepPool {
    /// A pool using the environment/default thread count.
    pub fn new() -> Self {
        SweepPool { threads: None }
    }

    /// Forces the worker count to `n` (clamped up to 1). Overrides
    /// `VMP_THREADS`.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = NonZeroUsize::new(n.max(1));
        self
    }

    /// The worker count [`run`](Self::run) will use: the explicit
    /// [`threads`](Self::threads) override, else `VMP_THREADS`, else
    /// available parallelism.
    pub fn effective_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n.get();
        }
        if let Some(n) = threads_from_env() {
            return n;
        }
        thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    }

    /// Runs every job and returns the results **in submission order**.
    ///
    /// `runner` must be a pure function of the job (plus shared
    /// immutable captures such as an `Arc<Trace>`): the pool guarantees
    /// output ordering, and purity then guarantees the full result
    /// vector is identical for any thread count.
    pub fn run<T, R, F>(&self, jobs: Vec<SweepJob<T>>, runner: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&SweepJob<T>) -> R + Sync,
    {
        let workers = self.effective_threads().min(jobs.len().max(1));
        if workers <= 1 {
            return jobs.iter().map(&runner).collect();
        }

        let cursor = AtomicUsize::new(0);
        let jobs = &jobs;
        let runner = &runner;
        let mut slots: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();

        let mut harvested = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(idx) else { break };
                            done.push((idx, runner(job)));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect::<Vec<_>>()
        });

        // Scatter each result back to its submission slot.
        for (idx, result) in harvested.drain(..) {
            debug_assert!(slots[idx].is_none(), "job {idx} ran twice");
            slots[idx] = Some(result);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| slot.unwrap_or_else(|| panic!("job {idx} never ran")))
            .collect()
    }
}

/// Parses `VMP_THREADS`; `None` when unset, empty, or not a positive
/// integer (a bad value falls back rather than aborting a long sweep).
fn threads_from_env() -> Option<usize> {
    let raw = std::env::var(THREADS_ENV).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            // Callers resolve the count more than once (announce line,
            // then run); warn only the first time.
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid {THREADS_ENV}={raw:?} (want a positive integer)"
                );
            });
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn jobs(n: usize) -> Vec<SweepJob<usize>> {
        (0..n).map(|i| SweepJob::new(format!("j{i}"), i)).collect()
    }

    #[test]
    fn results_in_submission_order() {
        for threads in [1, 2, 3, 8] {
            let out = SweepPool::new().threads(threads).run(jobs(23), |j| j.input * 10);
            assert_eq!(out, (0..23).map(|i| i * 10).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        let out = SweepPool::new().threads(4).run(jobs(100), |j| {
            seen.lock().unwrap().push(j.input);
            j.input
        });
        assert_eq!(out.len(), 100);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = thread::current().id();
        let out = SweepPool::new().threads(1).run(jobs(5), |j| {
            assert_eq!(thread::current().id(), caller);
            j.input + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_job_list() {
        let out: Vec<usize> =
            SweepPool::new().threads(4).run(Vec::<SweepJob<usize>>::new(), |j| j.input);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = SweepPool::new().threads(64).run(jobs(3), |j| j.input);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn labels_survive() {
        let js = jobs(4);
        assert_eq!(js[2].label, "j2");
        let out = SweepPool::new().threads(2).run(js, |j| j.label.clone());
        assert_eq!(out, vec!["j0", "j1", "j2", "j3"]);
    }

    #[test]
    fn effective_threads_override_beats_env() {
        let pool = SweepPool::new().threads(3);
        assert_eq!(pool.effective_threads(), 3);
    }
}
