//! A work-stealing parallel runner for experiment grids.
//!
//! Every cell of a `protocol × n × f_a` sweep is an independent,
//! deterministic simulation, so the grid can be scattered across OS threads
//! for a near-linear speedup at `--full` scale. Workers pull the next
//! unclaimed cell from a shared atomic cursor (work stealing in the
//! "idle workers take the next job" sense — there are no per-worker queues to
//! steal back from), so long cells do not serialize behind short ones.
//!
//! Determinism: the *contents* of each result depend only on the job (each
//! simulation carries its own seed), and results are returned **in job
//! order** regardless of which worker computed them or in which order they
//! finished. Running the same grid with 1, 2 or 64 threads therefore yields
//! byte-identical reports — `crates/bench/tests/parallel_sweep.rs` pins this
//! property down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of worker threads to use when the user does not say:
/// `std::thread::available_parallelism()`, or 1 if that cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `run` over every job, using up to `threads` OS threads, and returns
/// the results in job order.
///
/// `threads` is clamped to `1..=jobs.len()`. With one thread (or one job) the
/// jobs run inline on the caller's thread — no spawning, same results.
///
/// # Panics
///
/// If `run` panics on any job, the panic is propagated to the caller once all
/// workers have stopped (the behaviour of [`std::thread::scope`]).
pub fn run_grid<I, T, F>(jobs: Vec<I>, threads: usize, run: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let total = jobs.len();
    let threads = threads.clamp(1, total.max(1));
    if threads <= 1 {
        return jobs.into_iter().map(run).collect();
    }

    // Jobs are taken (moved out) by whichever worker claims the index; each
    // result is parked in the slot of the same index to restore job order.
    let cursor = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<I>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                let job = jobs[index]
                    .lock()
                    .expect("a worker panicked while claiming a job")
                    .take()
                    .expect("job indices are claimed exactly once");
                let result = run(job);
                *slots[index]
                    .lock()
                    .expect("a worker panicked while storing a result") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked")
                .expect("every slot was filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8, 200] {
            let results = run_grid(jobs.clone(), threads, |j| j * 3);
            assert_eq!(results, (0..100).map(|j| j * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = run_grid((0..57).collect(), 8, |j: usize| {
            counter.fetch_add(1, Ordering::Relaxed);
            j
        });
        assert_eq!(results.len(), 57);
        assert_eq!(counter.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn empty_grids_and_zero_threads_are_fine() {
        let results: Vec<u32> = run_grid(Vec::<u32>::new(), 0, |j| j);
        assert!(results.is_empty());
        let results = run_grid(vec![7u32], 0, |j| j + 1);
        assert_eq!(results, vec![8]);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let jobs: Vec<u64> = (0..40).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j.wrapping_mul(0x9e37)).collect();
        let serial = run_grid(jobs.clone(), 1, |j| j.wrapping_mul(0x9e37));
        let parallel = run_grid(jobs, 8, |j| j.wrapping_mul(0x9e37));
        assert_eq!(serial, expect);
        assert_eq!(parallel, expect);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
