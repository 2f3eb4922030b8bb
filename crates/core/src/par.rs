//! The one fan-out primitive: an index-parallel loop on a persistent pool.
//!
//! Every parallel phase of the hot path — each block's key sort and run
//! table, the engine's Map and Reduce stages, and the sharded count tree's
//! ingest and seal — is
//! the same loop: `n` independent tasks, each a pure function of its index,
//! results wanted in index order. [`map_indexed`] is that loop, so a caller's
//! output cannot depend on the thread count.
//!
//! ## The pool
//!
//! Helper threads start on first use and live for the rest of the process;
//! the pool grows to the largest `workers − 1` any call has asked for and
//! never shrinks. A call posts its job, wakes up to `workers − 1` helpers,
//! and works on the job itself as worker 0, claiming indices from the same
//! counter as the helpers. So a call finishes on its own even when every
//! helper is busy elsewhere — in another caller's job, or in a task of this
//! one that fans out again — and no lock is held while a task runs.
//!
//! A task that panics is caught where it ran: the job stops handing out
//! indices, and once every claimed task has stopped the caller re-raises the
//! first payload, message and all. The helper that ran it serves the next
//! job as before. So no helper ever unwinds, and none is joined: they end
//! with the process.
//!
//! Passing a borrowed closure to threads that outlive the call takes one
//! lifetime erasure, in `fan_out`; its `// SAFETY:` comment states the
//! invariant that makes it sound.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// `(0..n).map(f).collect()`, with the calls spread over up to `threads`
/// workers: the calling thread and `threads − 1` pool helpers. Workers claim
/// indices from a shared counter (a slow task delays only its own worker)
/// and the results come back in index order whichever worker produced them.
/// With one worker — `threads <= 1` or `n <= 1` — the pool is not touched:
/// the loop runs inline on the calling thread. A task's panic reaches the
/// caller as itself, after every other claimed task has stopped.
pub fn map_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed: the counter only hands out indices; every result reaches the
    // caller through its slot's lock.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(out) => *lock(&slots[i]) = Some(out),
            Err(payload) => {
                next.store(n, Ordering::Relaxed);
                lock(&panicked).get_or_insert(payload);
                return;
            }
        }
    };
    fan_out(&work, workers - 1);
    if let Some(payload) = into_inner(panicked) {
        resume_unwind(payload);
    }
    (slots.into_iter())
        .map(|slot| into_inner(slot).expect("every index ran"))
        .collect()
}

/// [`map_indexed`] with each task owning its item: `f(i, &mut items[i])` for
/// every item, results in index order. Every item is handed out once, so
/// nothing else touches it while its task runs.
pub fn map_mut<S: Send, T: Send>(
    items: &mut [S],
    threads: usize,
    f: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T> {
    let items: Vec<Mutex<&mut S>> = items.iter_mut().map(Mutex::new).collect();
    map_indexed(items.len(), threads, |i| f(i, &mut lock(&items[i])))
}

/// A job's claim loop: it claims indices until none is left, and never
/// unwinds.
type Work<'a> = dyn Fn() + Sync + 'a;

/// A posted job as the pool holds it: the caller's claim loop, with its
/// lifetime erased (see [`fan_out`]).
struct Posted {
    id: u64,
    work: &'static Work<'static>,
    /// Helpers that may still join.
    seats: usize,
    /// Helpers inside `work` now.
    running: usize,
}

struct State {
    helpers: usize,
    posted: Vec<Posted>,
    next_id: u64,
}

impl State {
    fn job(&mut self, id: u64) -> &mut Posted {
        let at = self.posted.iter().position(|p| p.id == id);
        &mut self.posted[at.expect("a job stays posted until its helpers leave")]
    }
}

/// The process's helpers and the jobs they may join.
struct Pool {
    state: Mutex<State>,
    /// Signalled when a job is posted.
    posted: Condvar,
    /// Signalled when the last helper leaves a job.
    left: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        helpers: 0,
        posted: Vec::new(),
        next_id: 0,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

/// Lock `m`, poisoned or not. The pool's state and a result slot are only
/// assigned under their locks, so a panic elsewhere leaves them valid; an
/// item of [`map_mut`] is locked by the one task that owns it, and that
/// task's panic reaches the caller anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Run `work` on the calling thread and on up to `seats` helpers, returning
/// only when every helper that joined has left it.
fn fan_out(work: &Work<'_>, seats: usize) {
    // SAFETY: a helper reads `work` only between joining the job (a seat
    // taken under the pool lock, while the job is posted) and leaving it
    // (`running` decremented under the lock, after its last call returned).
    // This function retracts the job's seats and then waits, under the same
    // lock, until `running` is zero before it removes the job and returns;
    // `work` catches every task panic, so neither it nor this function
    // unwinds before that wait. Every use of the erased reference therefore
    // ends before the borrow it was made from.
    let erased = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(work) };
    let id = {
        let mut state = lock(&POOL.state);
        while state.helpers < seats {
            std::thread::Builder::new()
                .name(format!("prompt-par-{}", state.helpers))
                .spawn(helper)
                .expect("spawn a fan-out helper");
            state.helpers += 1;
        }
        let id = state.next_id;
        state.next_id += 1;
        state.posted.push(Posted {
            id,
            work: erased,
            seats,
            running: 0,
        });
        id
    };
    for _ in 0..seats {
        POOL.posted.notify_one();
    }
    work();
    let mut state = lock(&POOL.state);
    state.job(id).seats = 0;
    while state.job(id).running > 0 {
        state = POOL
            .left
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    state.posted.retain(|p| p.id != id);
}

/// A helper's life: join any posted job with a free seat, run its claim loop
/// to the end, leave it, repeat.
fn helper() {
    let mut state = lock(&POOL.state);
    loop {
        let Some(job) = state.posted.iter_mut().find(|p| p.seats > 0) else {
            state = POOL
                .posted
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        job.seats -= 1;
        job.running += 1;
        let (id, work) = (job.id, job.work);
        drop(state);
        work();
        state = lock(&POOL.state);
        let job = state.job(id);
        job.running -= 1;
        if job.running == 0 {
            POOL.left.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    fn me() -> ThreadId {
        std::thread::current().id()
    }

    /// Helpers spawned so far.
    fn helpers() -> usize {
        lock(&POOL.state).helpers
    }

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

    /// One worker is the calling thread alone; more are the caller (worker
    /// 0) plus pool helpers — never a thread made for the call.
    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        for (n, threads) in [(5, 1), (5, 0), (1, 8)] {
            let ids = map_indexed(n, threads, |_| me());
            assert!(
                ids.iter().all(|&id| id == me()),
                "{n} / {threads} left the caller"
            );
        }
        let names = map_indexed(16, 2, |_| std::thread::current().name().map(str::to_owned));
        let caller = std::thread::current().name().map(str::to_owned);
        let pooled =
            |n: &Option<String>| n.as_deref().is_some_and(|n| n.starts_with("prompt-par-"));
        assert!(
            names.iter().all(|n| *n == caller || pooled(n)),
            "a task ran off the caller and off the pool: {names:?}"
        );
    }

    #[test]
    fn the_caller_runs_tasks() {
        // Every task waits until the caller has run one, so the call can only
        // finish if the caller claims indices itself.
        let caller = me();
        let caller_ran = AtomicUsize::new(0);
        let ids = map_indexed(8, 4, |_| {
            if me() == caller {
                caller_ran.fetch_add(1, Ordering::SeqCst);
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while caller_ran.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            me()
        });
        assert!(ids.contains(&caller), "the caller claimed no index");
    }

    /// 100 calls reuse the same helpers. Each call's two tasks meet at a
    /// barrier, so the caller runs one and a helper the other; every helper
    /// id is a pool thread, so there are at most as many as the pool has, not
    /// one per call.
    #[test]
    fn helpers_persist_across_calls() {
        let mut seen: HashSet<ThreadId> = HashSet::new();
        for _ in 0..100 {
            let both = Barrier::new(2);
            let ids = map_indexed(2, 2, |_| {
                both.wait();
                me()
            });
            assert!(ids.contains(&me()) && ids[0] != ids[1], "{ids:?}");
            seen.extend(ids.into_iter().filter(|&id| id != me()));
        }
        assert!(
            seen.len() <= helpers(),
            "{} ids from {} helpers",
            seen.len(),
            helpers()
        );
        assert!(seen.len() < 100, "a thread per call");
    }

    #[test]
    fn a_nested_call_completes() {
        let sums = map_indexed(6, 3, |i| {
            map_indexed(50, 3, |j| i * j).iter().sum::<usize>()
        });
        assert_eq!(
            sums,
            (0..6)
                .map(|i| i * (0..50).sum::<usize>())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..8usize)
                .map(|c| {
                    scope.spawn(move || {
                        for round in 0..20 {
                            let got = map_indexed(33, 3, |i| (c, round, i));
                            let want: Vec<_> = (0..33).map(|i| (c, round, i)).collect();
                            assert_eq!(got, want, "caller {c}, round {round}");
                        }
                    })
                })
                .collect();
            for caller in callers {
                caller.join().expect("a caller panicked");
            }
        });
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn map_mut_hands_each_item_to_one_task() {
        for threads in [1, 2, 5] {
            let mut items: Vec<usize> = (0..40).collect();
            let out = map_mut(&mut items, threads, |i, x| {
                *x += 100;
                i
            });
            assert_eq!(out, (0..40).collect::<Vec<_>>());
            assert_eq!(items, (100..140).collect::<Vec<_>>());
        }
    }

    fn panic_at(threads: usize) {
        map_indexed(16, threads, |i| {
            if i == 5 {
                panic!("task {i} failed on purpose");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "task 5 failed on purpose")]
    fn a_panic_keeps_its_message_inline() {
        panic_at(1);
    }

    #[test]
    #[should_panic(expected = "task 5 failed on purpose")]
    fn a_panic_keeps_its_message_on_the_pool() {
        panic_at(4);
    }

    #[test]
    fn the_pool_serves_the_next_call_after_a_panic() {
        for _ in 0..3 {
            let caught = catch_unwind(|| panic_at(4)).expect_err("the task panicked");
            let message = caught.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("task 5 failed on purpose"));
            assert_eq!(map_indexed(16, 4, |i| i + 1), (1..=16).collect::<Vec<_>>());
        }
    }
}
