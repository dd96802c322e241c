//! The one parallel kernel behind every campaign runner.
//!
//! Campaigns, protection sweeps, hierarchy campaigns and golden-trace
//! dumps all evaluate a fixed list of independent work items whose cost
//! varies widely (a lossy flapping case can take many times longer than a
//! clean cut). They share this ordered, work-stealing map so that the job
//! count is an execution detail that never reaches a report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Evaluates `f(0)`, …, `f(n - 1)` on up to `jobs` scoped worker threads
/// and returns the results in index order.
///
/// Workers pull the next index off a shared atomic cursor, so one slow
/// item never idles the others; each worker buffers its `(index, result)`
/// pairs locally and the pairs are reassembled by index, so the output is
/// identical for every `jobs`. At most `n` threads are spawned (none for
/// `n = 0`).
///
/// # Panics
///
/// Panics if `jobs` is zero (callers take it from the user and must
/// reject 0 up front), or if `f` panics on a worker.
pub(crate) fn par_map_ordered<R: Send>(
    n: usize,
    jobs: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    assert!(jobs >= 1, "at least one worker is required");
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                done.lock().expect("no poisoned workers").extend(local);
            });
        }
    });
    let mut done = done.into_inner().expect("workers joined");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;

    #[test]
    fn output_is_in_index_order_for_any_job_count() {
        for jobs in [1, 2, 3, 8] {
            for n in [0, 1, 5, 37] {
                // With two or more workers, item 0 waits until every other
                // item has finished, so results arrive out of index order.
                let finished = (Mutex::new(Vec::new()), Condvar::new());
                let out = par_map_ordered(n, jobs, |i| {
                    let (log, all_others_done) = &finished;
                    let mut log = log.lock().unwrap();
                    if i == 0 && jobs >= 2 {
                        log = all_others_done
                            .wait_while(log, |log| log.len() < n - 1)
                            .unwrap();
                    }
                    log.push(i);
                    all_others_done.notify_all();
                    i * i
                });
                let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, expected, "jobs {jobs}, n {n}");
                let log = finished.0.into_inner().unwrap();
                assert_eq!(log.len(), n);
                if jobs >= 2 && n >= 2 {
                    assert_eq!(log.last(), Some(&0), "jobs {jobs}, n {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_is_rejected() {
        par_map_ordered(3, 0, |i| i);
    }
}
