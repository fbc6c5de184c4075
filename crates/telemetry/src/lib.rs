//! `er-telemetry`: structured spans, process-wide counters, and a JSONL
//! event journal for the ER reconstruction pipeline.
//!
//! Design goals, in priority order:
//!
//! 1. **Zero overhead when disabled.** Every instrumentation macro checks a
//!    single process-global atomic ([`enabled`]) before doing anything
//!    else; the disabled path is one relaxed load and a predictable
//!    branch (< 2 ns, verified by `crates/bench/benches/telemetry.rs`).
//! 2. **Lock-free hot path when enabled.** Counters are relaxed
//!    `AtomicU64` slots in per-thread tables. No mutex is ever taken on
//!    the increment path (registration of a *new* counter name takes a
//!    lock once per callsite, cached thereafter).
//! 3. **Exact attribution.** Per-thread counter tables mean a
//!    reconstruction running on one thread can take before/after
//!    snapshots ([`local_snapshot`]) whose deltas are unaffected by
//!    other threads (e.g. parallel `cargo test`). Global aggregation
//!    across threads is available via [`global_snapshot`].
//!
//! # Modes
//!
//! The mode comes from the `ER_TELEMETRY` environment variable:
//!
//! | value | spans | counters | journal |
//! |---|---|---|---|
//! | `off` (default) | no | no | no |
//! | `counters` | timed, aggregated into counters | yes | no |
//! | `full` | timed | yes | JSONL events under `ER_TELEMETRY_DIR` |
//!
//! [`set_mode`] overrides the environment. Nothing else changes the mode:
//! the pipeline keeps its own statistics in plain fields, so `off` really
//! records nothing.
//!
//! # Example
//!
//! ```
//! use er_telemetry::{counter, span, Mode};
//!
//! er_telemetry::set_mode(Mode::Counters);
//! let before = er_telemetry::local_snapshot();
//! {
//!     let _span = span!("demo.phase");
//!     counter!("demo.widgets").add(3);
//! }
//! let delta = er_telemetry::local_snapshot().delta(&before);
//! assert_eq!(delta.get("demo.widgets"), 3);
//! ```

pub mod counters;
pub mod journal;
pub mod logging;
pub mod span;

pub use counters::{local_snapshot, CounterSnapshot};
pub use journal::{read_journal, Event};
pub use span::set_context;

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Telemetry collection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// No collection; instrumentation macros are no-ops.
    Off = 0,
    /// Counters collected; span timings aggregated into counters; no
    /// journal.
    Counters = 1,
    /// Everything in `Counters`, plus every span emits a JSONL event.
    Full = 2,
}

const MODE_UNINIT: u8 = 0xff;

/// The mode, read on every hot path. `0xff` = not yet initialized.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

fn env_mode() -> Mode {
    match std::env::var("ER_TELEMETRY").as_deref() {
        Ok("counters") => Mode::Counters,
        Ok("full") => Mode::Full,
        _ => Mode::Off,
    }
}

#[cold]
fn init_mode() -> u8 {
    // A racing `set_mode` wins: the environment only fills an unset mode.
    let env = env_mode() as u8;
    match MODE.compare_exchange(MODE_UNINIT, env, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => env,
        Err(set) => set,
    }
}

/// The current telemetry mode.
#[inline]
pub fn mode() -> Mode {
    let raw = MODE.load(Ordering::Relaxed);
    let raw = if raw == MODE_UNINIT { init_mode() } else { raw };
    match raw {
        1 => Mode::Counters,
        2 => Mode::Full,
        _ => Mode::Off,
    }
}

/// Whether any collection is active. This is the hot-path check: one
/// relaxed atomic load and a compare.
#[inline(always)]
pub fn enabled() -> bool {
    // The uninit sentinel (0xff) counts as "maybe enabled" so the first
    // instrumentation hit initializes the mode; thereafter the load is a
    // plain 0/1/2 compare.
    MODE.load(Ordering::Relaxed) != Mode::Off as u8
}

/// Overrides the mode (tests and benchmarks). Prefer `ER_TELEMETRY` in
/// production use.
pub fn set_mode(m: Mode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// A process-wide aggregate counter snapshot (sums across all threads
/// that ever recorded).
pub fn global_snapshot() -> CounterSnapshot {
    counters::global_snapshot()
}

thread_local! {
    static MUTED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's telemetry muted: `f` adds to no counter
/// and opens no span, and the thread is as it was afterwards. For checks
/// that repeat measured work on the side. Only the recording slow paths
/// read the flag, so disabled telemetry stays one load and a branch.
pub fn muted<R>(f: impl FnOnce() -> R) -> R {
    /// Unmutes on drop, so a panicking `f` leaves the thread as it was.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            MUTED.with(|m| m.set(self.0));
        }
    }
    let _restore = Restore(MUTED.with(|m| m.replace(true)));
    f()
}

/// Whether this thread is inside [`muted`].
pub(crate) fn is_muted() -> bool {
    MUTED.with(Cell::get)
}
