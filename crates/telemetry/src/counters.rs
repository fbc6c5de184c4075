//! Process-wide named counters with per-thread storage.
//!
//! Counter names live in a global registry mapping each name to a slot
//! index; every thread lazily owns a fixed-size table of relaxed
//! `AtomicU64` slots. Increments touch only the calling thread's table
//! (no sharing, no false-sharing-induced stalls across unrelated
//! threads), while aggregation walks all tables. When a thread exits, its
//! table folds into one retired total, so the registry holds a table per
//! *live* thread and global sums stay exact.
//!
//! The `counter!` macro caches the slot lookup per callsite behind a
//! `OnceLock`, so the steady-state enabled path is: one mode load, one
//! `OnceLock` load, one thread-local access, one relaxed `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Maximum number of distinct counter names in one process. Exceeding it
/// panics at registration time (a programming error, not a data issue).
pub const MAX_COUNTERS: usize = 256;

struct Table {
    slots: [AtomicU64; MAX_COUNTERS],
}

impl Table {
    fn new() -> Self {
        Table {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Every live thread's table, plus the sums of the tables of threads that
/// exited.
struct Tables {
    live: Vec<Arc<Table>>,
    retired: Box<[u64; MAX_COUNTERS]>,
}

fn tables() -> MutexGuard<'static, Tables> {
    static TABLES: OnceLock<Mutex<Tables>> = OnceLock::new();
    TABLES
        .get_or_init(|| {
            Mutex::new(Tables {
                live: Vec::new(),
                retired: Box::new([0; MAX_COUNTERS]),
            })
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A thread's table; on thread exit it folds into the retired total.
struct LocalTable(Arc<Table>);

impl Drop for LocalTable {
    fn drop(&mut self) {
        // One lock covers the removal and the fold, so a concurrent
        // `global_snapshot` counts this table exactly once.
        let mut tables = tables();
        tables.live.retain(|t| !Arc::ptr_eq(t, &self.0));
        for (sum, slot) in tables.retired.iter_mut().zip(&self.0.slots) {
            *sum = sum.wrapping_add(slot.load(Ordering::Relaxed));
        }
    }
}

thread_local! {
    static LOCAL: LocalTable = {
        let t = Arc::new(Table::new());
        tables().live.push(Arc::clone(&t));
        LocalTable(t)
    };
}

/// Finds or allocates the slot for `name`.
///
/// Called once per `counter!` callsite (cached), or per distinct dynamic
/// name for [`register_dynamic`].
pub fn register(name: &'static str) -> usize {
    let mut names = names().lock().unwrap();
    if let Some(i) = names.iter().position(|n| *n == name) {
        return i;
    }
    assert!(
        names.len() < MAX_COUNTERS,
        "too many distinct counters (max {MAX_COUNTERS}); raise MAX_COUNTERS"
    );
    names.push(name);
    names.len() - 1
}

/// [`register`] for runtime-built names (e.g. `span.<name>.ns`); leaks
/// each distinct name once.
pub fn register_dynamic(name: String) -> usize {
    {
        let names = names().lock().unwrap();
        if let Some(i) = names.iter().position(|n| *n == name) {
            return i;
        }
    }
    register(Box::leak(name.into_boxed_str()))
}

/// Adds `n` to the slot in the calling thread's table. Caller has
/// already checked the mode.
pub(crate) fn add_to_slot(slot: usize, n: u64) {
    let added = LOCAL.try_with(|t| t.0.slots[slot].fetch_add(n, Ordering::Relaxed));
    if added.is_err() {
        // Recorded from another thread-local's destructor after this
        // thread's table retired: add straight to the retired total.
        let sum = &mut tables().retired[slot];
        *sum = sum.wrapping_add(n);
    }
}

/// A cheap, copyable reference to one counter callsite.
///
/// Produced by the [`counter!`](crate::counter) macro; not constructed
/// directly.
#[derive(Clone, Copy)]
pub struct Handle {
    cell: &'static OnceLock<usize>,
    name: &'static str,
}

impl Handle {
    /// Used by the `counter!` macro.
    #[doc(hidden)]
    pub fn from_cache(cell: &'static OnceLock<usize>, name: &'static str) -> Self {
        Handle { cell, name }
    }

    /// Adds `n`. Disabled mode: one atomic load and a branch.
    #[inline(always)]
    pub fn add(self, n: u64) {
        if crate::enabled() {
            self.add_slow(n);
        }
    }

    /// Adds 1.
    #[inline(always)]
    pub fn incr(self) {
        self.add(1);
    }

    #[inline(never)]
    fn add_slow(self, n: u64) {
        // `enabled()` passes while the mode is still uninitialized;
        // `mode()` resolves it and gives the real answer.
        if crate::mode() == crate::Mode::Off || crate::is_muted() {
            return;
        }
        let slot = *self.cell.get_or_init(|| register(self.name));
        add_to_slot(slot, n);
    }
}

/// References one named counter, caching the registry lookup per
/// callsite.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __ER_COUNTER_SLOT: ::std::sync::OnceLock<usize> = ::std::sync::OnceLock::new();
        $crate::counters::Handle::from_cache(&__ER_COUNTER_SLOT, $name)
    }};
}

/// A point-in-time reading of every registered counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// `(name, value)` in registration order.
    values: Vec<(&'static str, u64)>,
}

impl CounterSnapshot {
    /// The value for `name` (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Per-counter difference `self - earlier` (saturating, so a counter
    /// registered between the two snapshots just reports its value).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            values: self
                .values
                .iter()
                .map(|(n, v)| (*n, v.saturating_sub(earlier.get(n))))
                .collect(),
        }
    }

    /// Iterates `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().copied()
    }

    /// `(name, value)` pairs with nonzero values.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        self.values
            .iter()
            .copied()
            .filter(|(_, v)| *v > 0)
            .collect()
    }
}

/// Reads the calling thread's counters. Deltas between two local
/// snapshots are exact for single-threaded work even while other
/// threads record concurrently.
pub fn local_snapshot() -> CounterSnapshot {
    let names = names().lock().unwrap().clone();
    LOCAL.with(|t| CounterSnapshot {
        values: names
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, t.0.slots[i].load(Ordering::Relaxed)))
            .collect(),
    })
}

/// Sums counters across every thread that ever recorded, exited ones
/// included.
pub fn global_snapshot() -> CounterSnapshot {
    let names = names().lock().unwrap().clone();
    let tables = tables();
    CounterSnapshot {
        values: names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let live: u64 = tables
                    .live
                    .iter()
                    .map(|t| t.slots[i].load(Ordering::Relaxed))
                    .sum();
                (*n, tables.retired[i].wrapping_add(live))
            })
            .collect(),
    }
}

/// Serializes tests that mutate the global telemetry mode.
#[doc(hidden)]
pub fn test_mutex() -> &'static Mutex<()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    #[test]
    fn disabled_counters_do_not_record() {
        let _l = test_mutex().lock().unwrap();
        crate::set_mode(Mode::Off);
        let before = local_snapshot();
        counter!("test.disabled").add(5);
        let delta = local_snapshot().delta(&before);
        assert_eq!(delta.get("test.disabled"), 0);
    }

    #[test]
    fn local_deltas_are_exact() {
        let _l = test_mutex().lock().unwrap();
        crate::set_mode(Mode::Counters);
        let before = local_snapshot();
        counter!("test.local").add(2);
        counter!("test.local").incr();
        let delta = local_snapshot().delta(&before);
        assert_eq!(delta.get("test.local"), 3);
        crate::set_mode(Mode::Off);
    }

    #[test]
    fn other_threads_do_not_pollute_local_deltas() {
        let _l = test_mutex().lock().unwrap();
        crate::set_mode(Mode::Counters);
        let before = local_snapshot();
        std::thread::spawn(|| {
            counter!("test.cross_thread").add(1_000);
        })
        .join()
        .unwrap();
        let delta = local_snapshot().delta(&before);
        assert_eq!(delta.get("test.cross_thread"), 0);
        assert!(global_snapshot().get("test.cross_thread") >= 1_000);
        crate::set_mode(Mode::Off);
    }

    #[test]
    fn exited_threads_fold_into_the_retired_total() {
        let _l = test_mutex().lock().unwrap();
        crate::set_mode(Mode::Counters);
        let before = global_snapshot().get("test.retired");
        for batch in 0..25 {
            let handles: Vec<_> = (0..8)
                .map(|k| {
                    std::thread::spawn(move || counter!("test.retired").add(batch * 8 + k + 1))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let after = global_snapshot().get("test.retired");
        let live = tables().live.len();
        crate::set_mode(Mode::Off);
        assert_eq!(after - before, (1..=200).sum::<u64>(), "sums stay exact");
        assert!(live < 200, "{live} tables for 200 exited threads");
    }

    #[test]
    fn dynamic_names_dedupe() {
        let a = register_dynamic("test.dyn.a".to_string());
        let b = register_dynamic("test.dyn.a".to_string());
        assert_eq!(a, b);
    }
}
