//! Order-preserving parallel map over OS threads.
//!
//! [`SosScheduler`](crate::sos::SosScheduler) evaluates an experiment's
//! calibration and candidate schedules concurrently, and the experiment
//! binaries fan out whole experiments the same way. Both need one property
//! above all: **results are merged in input order regardless of the worker
//! count**, so a parallel run produces byte-identical reports to a serial
//! one (the replay tests pin `workers = 1` against `workers = N`).
//!
//! Each map caps its own fan-out at [`available_workers`], but nothing caps
//! a map run inside another: `paper` and `learn_eval` fan out over
//! experiments, and each experiment fans out over its candidates, so up to
//! `available_workers()²` threads run at once. Only the outer map is meant
//! to fill the host; the inner one lets a long experiment use cores that
//! finished experiments have left idle.
//!
//! [`ClusterEngine`](crate::cluster::ClusterEngine) advances its shards
//! through the same map once per round, which is why the calling thread
//! works alongside the threads it spawns and one worker means no thread at
//! all. The bench binaries import this module directly.

/// The default fan-out: [`std::thread::available_parallelism`], or 1 when
/// the host will not say.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Runs `f` over `items` on a pool of OS threads (experiments and candidate
/// evaluations are independent and single-threaded, so this scales to the 13
/// paper configurations on a multicore host). This map spawns at most
/// [`available_workers`] threads; a map nested inside `f` spawns its own
/// (see the module docs). Results keep input order.
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    parallel_map_with_workers(items, available_workers(), f)
}

/// [`parallel_map`] with an explicit worker count. Results keep input order
/// regardless of `workers`, so a run is reproducible across pool sizes — the
/// replay tests pin this by comparing `workers = 1` against `workers = N`.
/// The calling thread is one of the workers: `workers − 1` scoped threads
/// are spawned (capped by the item count), and one worker runs `f` inline
/// with no thread at all.
pub fn parallel_map_with_workers<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i]
            .lock()
            .expect("item slot poisoned")
            .take()
            .expect("each slot is claimed exactly once");
        let out = f(item);
        *results[i].lock().expect("result slot poisoned") = Some(out);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(vec![3u64, 1, 4, 1, 5], |x| x * 2);
        assert_eq!(out, vec![6, 2, 8, 2, 10]);
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<u64> = (0..40).collect();
        let serial = parallel_map_with_workers(items.clone(), 1, |x| x + 7);
        let pooled = parallel_map_with_workers(items, 8, |x| x + 7);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn the_caller_is_a_worker_and_one_worker_spawns_nothing() {
        use std::thread::{current, ThreadId};
        let me = current().id();
        let ids = |items: usize, workers: usize| -> Vec<ThreadId> {
            // Every item blocks until all workers hold one, so each worker
            // (the caller included) is forced to take exactly one.
            let barrier = std::sync::Barrier::new(workers.min(items));
            parallel_map_with_workers(vec![(); items], workers, |()| {
                barrier.wait();
                current().id()
            })
        };
        assert_eq!(ids(1, 1), [me]);
        assert_eq!(ids(1, 4), [me], "one item never needs a thread");
        let three = ids(3, 3);
        assert_eq!(three.iter().filter(|&&id| id == me).count(), 1);
        let distinct: std::collections::HashSet<_> = three.iter().collect();
        assert_eq!(distinct.len(), 3, "three workers, two of them spawned");
    }

    #[test]
    fn parallel_map_handles_more_items_than_cores() {
        // Far more items than any host's parallelism: exercises the work
        // queue (each worker handles many items) and order preservation.
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(items.clone(), |x| x * x);
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expect);
    }
}
