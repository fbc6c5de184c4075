//! The process-wide worker pool every fleet phase (and the bench harness)
//! fans out on.
//!
//! The pool starts lazily, on the first map that has work to share, with
//! `available_parallelism() − 1` helper threads that live for the rest of
//! the process. Between rounds they block on a condvar (no spinning), so a
//! fleet's produce and analyze phases pay a wake-up per round instead of a
//! thread spawn. The calling thread works through its own round's items
//! too, which is why a round always finishes: even when every helper is
//! busy (a nested map from inside a pool job, say), the caller runs every
//! item nobody else claimed and waits only on items a running worker has
//! already claimed.
//!
//! Jobs outlive the call that submitted them only on threads that outlive
//! it, so they must be `'static`: items are passed by value and closures
//! own (or share through `Arc`) whatever they read.
//!
//! The pool injects no faults. Callers that rehearse worker deaths draw
//! [`er_chaos::Fault::WorkerPanic`] themselves, per item in input order
//! before fanning out, and keep a killed item out of the map: the same
//! plan then kills the same items serial or parallel, and a killed item's
//! work is never touched.

use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A worker closure panicked while processing one item. The other items'
/// results are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose closure failed.
    pub item: usize,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked on item {}: {}", self.item, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks `m`, tolerating poison: pool closures run under `catch_unwind`
/// and outside the pool's locks, so a poisoned lock holds valid data and
/// must never take down a round.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` on one item, turning a panic into a [`WorkerPanic`].
fn run_caught<T, R>(f: &impl Fn(usize, T) -> R, i: usize, item: T) -> Result<R, WorkerPanic> {
    std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|p| WorkerPanic {
        item: i,
        message: panic_message(p.as_ref()),
    })
}

/// One map call as the helpers see it: a round of claimable items.
trait Job: Send + Sync {
    /// Claims the next unclaimed item and runs it; `false` once every
    /// item is claimed.
    fn run_next(&self) -> bool;
}

struct RoundState<T, R> {
    /// Unclaimed items with their input index, in input order.
    unclaimed: VecDeque<(usize, T)>,
    /// Per-item results, by input index.
    results: Vec<Option<Result<R, WorkerPanic>>>,
    /// Items claimed whose result is not stored yet.
    running: usize,
}

struct Round<T, R, F> {
    f: F,
    state: Mutex<RoundState<T, R>>,
    /// Signalled when the last claimed item stores its result.
    settled: Condvar,
}

impl<T, R, F> Job for Round<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Send + Sync,
{
    fn run_next(&self) -> bool {
        let (i, item) = {
            let mut s = lock(&self.state);
            let Some(next) = s.unclaimed.pop_front() else {
                return false;
            };
            s.running += 1;
            next
        };
        let r = run_caught(&self.f, i, item);
        let mut s = lock(&self.state);
        s.results[i] = Some(r);
        s.running -= 1;
        if s.running == 0 && s.unclaimed.is_empty() {
            self.settled.notify_all();
        }
        true
    }
}

impl<T, R, F> Round<T, R, F> {
    /// Blocks until every claimed item has stored its result (the caller
    /// has already drained the unclaimed ones), then takes the results.
    fn wait_results(&self) -> Vec<Option<Result<R, WorkerPanic>>> {
        let mut s = lock(&self.state);
        debug_assert!(s.unclaimed.is_empty(), "the caller drains its round");
        while s.running > 0 {
            s = self.settled.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut s.results)
    }
}

/// The queue the helpers park on.
#[derive(Default)]
struct Shared {
    /// Rounds that may still have unclaimed items, oldest first.
    jobs: Mutex<VecDeque<Arc<dyn Job>>>,
    /// Signalled when a round is submitted.
    work: Condvar,
}

impl Shared {
    /// Drops `job` from the queue, so parked helpers stop looking at it.
    fn retire(&self, job: &Arc<dyn Job>) {
        lock(&self.jobs).retain(|j| !Arc::ptr_eq(j, job));
    }

    /// A helper's life: take the oldest round with work, run one of its
    /// items, repeat; park on the condvar while the queue is empty.
    fn serve(&self) {
        let mut jobs = lock(&self.jobs);
        loop {
            let Some(job) = jobs.front().cloned() else {
                jobs = self.work.wait(jobs).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(jobs);
            if !job.run_next() {
                self.retire(&job);
            }
            drop(job);
            jobs = lock(&self.jobs);
        }
    }
}

struct Pool {
    shared: Arc<Shared>,
    /// Helper threads actually running (spawn failures leave fewer).
    helpers: Vec<std::thread::ThreadId>,
}

/// The process-wide pool, started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(Shared::default());
        let want = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .saturating_sub(1);
        let mut helpers = Vec::with_capacity(want);
        for n in 0..want {
            let s = Arc::clone(&shared);
            // Helpers serve until the process exits, so their handles are
            // dropped; `serve` runs every closure under `catch_unwind`.
            match std::thread::Builder::new()
                .name(format!("er-pool-{n}"))
                .spawn(move || s.serve())
            {
                Ok(h) => helpers.push(h.thread().id()),
                Err(e) => {
                    // Fewer helpers only means less parallelism: callers
                    // run whatever nobody else claims.
                    er_telemetry::log!(warn, "pool helper {n} failed to start ({e})");
                    break;
                }
            }
        }
        Pool { shared, helpers }
    })
}

/// Fans `f` out over `items` on the process-wide worker pool, returning
/// per-item results in input order. A panicking closure costs exactly its
/// own item: the unwind is caught and surfaced as [`WorkerPanic`] so the
/// rest of the round completes.
///
/// Idle workers take the next unclaimed item, so uneven per-item cost
/// balances automatically. `serial` is the escape hatch the determinism
/// regression compares against: it runs everything inline on the calling
/// thread. Items may run on any pool thread, the caller included; the
/// caller's telemetry context is restored after its share of the round,
/// so callers that tag their work (`er_telemetry::set_context`) do it
/// inside `f`, where it lands on the thread actually running the item.
pub fn try_parallel_map<T, R, F>(items: Vec<T>, serial: bool, f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    let mut results: Vec<Option<Result<R, WorkerPanic>>> = items.iter().map(|_| None).collect();
    let unclaimed: VecDeque<(usize, T)> = items.into_iter().enumerate().collect();
    let context = er_telemetry::span::context();
    let helpers = if serial || unclaimed.len() <= 1 {
        0
    } else {
        pool().helpers.len()
    };
    if helpers == 0 {
        for (i, item) in unclaimed {
            results[i] = Some(run_caught(&f, i, item));
        }
    } else {
        let share = (unclaimed.len() - 1).min(helpers);
        let round = Arc::new(Round {
            f,
            state: Mutex::new(RoundState {
                unclaimed,
                results,
                running: 0,
            }),
            settled: Condvar::new(),
        });
        let job: Arc<dyn Job> = round.clone();
        let shared = &pool().shared;
        lock(&shared.jobs).push_back(Arc::clone(&job));
        for _ in 0..share {
            shared.work.notify_one();
        }
        while round.run_next() {}
        shared.retire(&job);
        results = round.wait_results();
    }
    er_telemetry::set_context(&context);
    results
        .into_iter()
        .map(|r| r.expect("every item stores its result"))
        .collect()
}

/// [`try_parallel_map`] for infallible closures: re-raises the first
/// worker panic on the calling thread (after the whole round has run).
pub fn parallel_map<T, R, F>(items: Vec<T>, serial: bool, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    try_parallel_map(items, serial, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Tests that occupy helpers must not overlap; the chaos lock also
    /// keeps them apart from the crate's chaos tests.
    fn serialize() -> MutexGuard<'static, ()> {
        crate::testsync::chaos_lock()
    }

    /// Spins (yielding) until `cond` holds or `limit` passes.
    fn wait_until(limit: Duration, cond: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while !cond() {
            if start.elapsed() > limit {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, false, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let f = |_: usize, x: u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        assert_eq!(
            parallel_map((0..37).collect(), false, f),
            parallel_map((0..37).collect(), true, f)
        );
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(none, false, |_, x| x).is_empty());
        assert_eq!(parallel_map(vec![7u32], false, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn panicking_item_costs_only_itself() {
        let items: Vec<u32> = (0..16).collect();
        for serial in [true, false] {
            let out = try_parallel_map(items.clone(), serial, |_, x| {
                assert!(x != 7, "doomed item");
                x * 10
            });
            for (i, r) in out.iter().enumerate() {
                if i == 7 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.item, 7);
                    assert!(e.message.contains("doomed item"), "{}", e.message);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), items[i] * 10);
                }
            }
        }
    }

    #[test]
    fn all_items_panicking_still_returns_per_item_errors() {
        let out = try_parallel_map(vec![1u8, 2, 3], false, |_, _| -> u8 {
            panic!("everyone dies")
        });
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(Result::is_err));
    }

    #[test]
    fn nested_maps_complete() {
        let out = parallel_map((0..6u64).collect(), false, |_, x| {
            parallel_map((0..5u64).collect(), false, move |_, y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        let want: Vec<u64> = (0..6u64)
            .map(|x| (0..5).map(|y| x * 10 + y).sum())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn a_round_completes_while_every_helper_is_busy() {
        let _l = serialize();
        let helpers = pool().helpers.len();
        // Occupy every helper (and the blocker's own caller) until released.
        let release = Arc::new(AtomicBool::new(false));
        let busy = Arc::new(AtomicUsize::new(0));
        let blocker = {
            let (release, busy) = (Arc::clone(&release), Arc::clone(&busy));
            std::thread::spawn(move || {
                parallel_map(vec![(); helpers + 1], false, move |_, ()| {
                    busy.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            })
        };
        let all_busy = wait_until(Duration::from_secs(30), || {
            busy.load(Ordering::SeqCst) == helpers + 1
        });
        let me = std::thread::current().id();
        let ran_on = parallel_map((0..8).collect(), false, |_, x: u32| {
            (x, std::thread::current().id())
        });
        release.store(true, Ordering::SeqCst);
        blocker.join().expect("blocker round completes");
        assert!(all_busy, "every helper picked up a blocking item");
        assert_eq!(
            ran_on.iter().map(|r| r.0).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert!(
            ran_on.iter().all(|r| r.1 == me),
            "the caller ran the whole round"
        );
    }

    #[test]
    fn consecutive_rounds_reuse_the_same_helper_threads() {
        let _l = serialize();
        let me = std::thread::current().id();
        let mut helper_ids: HashSet<ThreadId> = HashSet::new();
        for round in 0..20 {
            // Two items, each waiting for the other to start: the caller
            // takes one, and a helper must take the other.
            let started = Arc::new(AtomicUsize::new(0));
            let ids = parallel_map(vec![(); 2], false, move |_, ()| {
                started.fetch_add(1, Ordering::SeqCst);
                wait_until(Duration::from_secs(5), || {
                    started.load(Ordering::SeqCst) == 2
                });
                std::thread::current().id()
            });
            let others: HashSet<ThreadId> = ids.into_iter().filter(|&id| id != me).collect();
            if round > 0 {
                assert!(
                    others.is_subset(&helper_ids),
                    "round {round} ran on a thread first seen after round 0: {others:?} vs {helper_ids:?}"
                );
            }
            helper_ids.extend(others);
        }
        let known: HashSet<ThreadId> = pool().helpers.iter().copied().collect();
        assert!(helper_ids.is_subset(&known), "only pool helpers ran items");
        if !known.is_empty() {
            assert!(!helper_ids.is_empty(), "helpers took part");
        }
    }

    #[test]
    fn the_callers_telemetry_context_survives_its_share_of_a_round() {
        er_telemetry::set_context("caller");
        for serial in [true, false] {
            parallel_map((0..4).collect(), serial, |_, x: u32| {
                er_telemetry::set_context("item");
                er_telemetry::set_context("");
                x
            });
            assert_eq!(er_telemetry::span::context(), "caller", "serial {serial}");
        }
        er_telemetry::set_context("");
    }
}
