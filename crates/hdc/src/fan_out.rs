//! The workspace's one fan-out: jobs handed from a feed on the calling
//! thread to scoped workers, results back in feed order. The distance
//! kernels split tiles and sweeps with it, and the pipeline clusters shards
//! with it — the host's stand-in for the paper's parallel clustering
//! kernels pulling precursor buckets.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;

/// The worker count `workers` resolves to: itself, or one per available
/// core for `0`. The only place a thread count is resolved.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers > 0 {
        return workers;
    }
    // available_parallelism reads cgroup files on Linux — far too slow to
    // query per kernel call; resolve it once per process.
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `feed` on the calling thread and turns every job it hands over into
/// a result with `work`. Returns what `feed` returned and the results, in
/// feed order; `in_order` sees each result in that order, as soon as it and
/// every earlier one are done (one call at a time).
///
/// `workers` is the requested worker count, `0` meaning one per available
/// core. At one worker each job is worked on the calling thread as it is
/// fed, and no thread or channel is made. At more, the k-th job fed starts
/// the k-th scoped worker (up to `workers`) and `feed` carries on while
/// workers pull jobs from one queue, so no worker starts without a job to
/// take. Jobs are independent, so the results do not depend on the count.
///
/// # Examples
///
/// ```
/// let mut seen = Vec::new();
/// let (fed, squares) = spechd_hdc::fan_out(
///     2,
///     |send| (1..=4u64).for_each(send),
///     |job| job * job,
///     |&mut square| seen.push(square),
/// );
/// assert_eq!(fed, ());
/// assert_eq!(squares, [1, 4, 9, 16]);
/// assert_eq!(seen, squares);
/// ```
pub fn fan_out<J: Send, R: Send, T>(
    workers: usize,
    feed: impl FnOnce(&mut dyn FnMut(J)) -> T,
    work: impl Fn(J) -> R + Sync,
    mut in_order: impl FnMut(&mut R) + Send,
) -> (T, Vec<R>) {
    let workers = resolve_workers(workers);
    if workers == 1 {
        let mut done = Vec::new();
        let fed = feed(&mut |job| {
            let mut result = work(job);
            in_order(&mut result);
            done.push(result);
        });
        return (fed, done);
    }
    let (tx, rx) = mpsc::channel::<(usize, J)>();
    let rx = Mutex::new(rx);
    // Results in feed order, those parked ahead of their turn, the hook.
    let results = Mutex::new((Vec::new(), BTreeMap::new(), in_order));
    let (rx, work, results_ref) = (&rx, &work, &results);
    let fed = thread::scope(|scope| {
        let mut seq = 0;
        let fed = feed(&mut |job| {
            if seq < workers {
                scope.spawn(move || loop {
                    // The queue's lock is released at the end of this line.
                    let received = lock(rx).recv();
                    let Ok((at, job)) = received else {
                        break; // every sender dropped: the feed is done
                    };
                    let result = work(job);
                    let mut guard = lock(results_ref);
                    let (done, parked, in_order) = &mut *guard;
                    parked.insert(at, result);
                    while let Some(mut next) = parked.remove(&done.len()) {
                        in_order(&mut next);
                        done.push(next);
                    }
                });
            }
            // The receiver outlives the scope, so a send cannot fail.
            let _ = tx.send((seq, job));
            seq += 1;
        });
        drop(tx); // hang up: workers drain the queue and exit
        fed
    });
    let (done, _, _) = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    (fed, done)
}

/// A worker that panics poisons the lock it held; the scope re-raises that
/// panic when it joins, so the others need not.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn zero_resolves_to_the_available_cores() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }

    /// Job 0 cannot finish before job 1 has been parked: job 0 waits for
    /// job 2, which the other worker only takes once job 1 is done. The
    /// hook and the returned results still see feed order.
    #[test]
    fn results_come_back_in_feed_order() {
        let (job_2_ran, wait_for_job_2) = mpsc::channel();
        let (job_2_ran, wait_for_job_2) = (Mutex::new(job_2_ran), Mutex::new(wait_for_job_2));
        let finished = Mutex::new(Vec::new());
        let mut hooked = Vec::new();
        let ((), results) = fan_out(
            2,
            |send| (0..3).for_each(send),
            |job: usize| {
                match job {
                    0 => wait_for_job_2.lock().unwrap().recv().unwrap(),
                    2 => job_2_ran.lock().unwrap().send(()).unwrap(),
                    _ => {}
                }
                finished.lock().unwrap().push(job);
                job
            },
            |&mut job| hooked.push(job),
        );
        assert_eq!(finished.into_inner().unwrap()[0], 1, "job 1 finished first");
        assert_eq!(hooked, [0, 1, 2]);
        assert_eq!(results, [0, 1, 2]);
    }

    #[test]
    fn one_worker_runs_every_job_on_the_caller() {
        let caller = thread::current().id();
        let mut hooked = 0;
        let (fed, ran_on) = fan_out(
            1,
            |send| {
                (0..5).for_each(send);
                "fed"
            },
            |_: usize| thread::current().id(),
            |on| {
                assert_eq!(*on, caller, "the hook runs on the caller too");
                hooked += 1;
            },
        );
        assert_eq!(fed, "fed");
        assert_eq!(hooked, 5);
        assert!(ran_on.iter().all(|&on| on == caller), "{ran_on:?}");
    }

    #[test]
    fn workers_start_only_with_the_jobs_fed() {
        let (_, ran_on) = fan_out(
            64,
            |send| (0..3).for_each(send),
            |_: usize| thread::current().id(),
            |_| {},
        );
        let distinct: HashSet<_> = ran_on.iter().collect();
        assert_eq!(ran_on.len(), 3);
        assert!(distinct.len() <= 3, "{distinct:?}");
        assert!(!distinct.contains(&thread::current().id()));
    }
}
