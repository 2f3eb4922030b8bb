//! The one fan-out primitive: run an index-parallel loop on scoped threads.
//!
//! Every parallel phase of the hot path — block materialization, the ingest
//! scatter, the engine's Map and Reduce stages — is the same loop: `n`
//! independent tasks, each a pure function of its index, results wanted in
//! index order. [`map_indexed`] is that loop, so a caller's output cannot
//! depend on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `(0..n).map(f).collect()`, with the calls spread over up to `threads` OS
/// threads. Workers claim indices from a shared counter (a slow task delays
/// only its own worker) and the results come back in index order whichever
/// worker produced them. With one worker — `threads <= 1` or `n <= 1` —
/// nothing is spawned: the loop runs inline on the calling thread.
pub fn map_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed: the counter only hands out indices; every result reaches the
    // caller through its worker's join.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return mine;
            }
            mine.push((i, f(i)));
        }
    };
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        for n in [0usize, 1, 2, 7, 64] {
            let want: Vec<usize> = (0..n).map(|i| i * i).collect();
            for threads in [0usize, 1, 2, 3, 8, 100] {
                assert_eq!(map_indexed(n, threads, |i| i * i), want, "{n} / {threads}");
            }
        }
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        let calls: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        map_indexed(calls.len(), 4, |i| calls[i].fetch_add(1, Ordering::Relaxed));
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let me = std::thread::current().id();
        for (n, threads) in [(5, 1), (5, 0), (1, 8)] {
            let ids = map_indexed(n, threads, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == me), "{n} / {threads} spawned");
        }
        let ids = map_indexed(4, 2, |_| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id != me),
            "workers are spawned threads"
        );
    }
}
