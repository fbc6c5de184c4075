//! Hierarchical RAII spans with wall-clock attribution.
//!
//! A span is opened with the [`span!`](crate::span!) macro and closed when
//! its guard drops. Spans nest on a thread-local stack (strictly LIFO —
//! a guard dropped out of order is detected and reported). Per mode:
//!
//! - `Counters`: each close adds its duration to `span.<name>.ns` and
//!   bumps `span.<name>.calls`.
//! - `Full`: additionally, each close emits a JSONL [`Event`] carrying
//!   the duration, nesting (parent/depth), the current context label,
//!   and the *local* counter deltas attributable to the span.

use crate::counters::{self, CounterSnapshot};
use crate::journal::{self, Event};
use crate::Mode;
use std::cell::RefCell;
use std::time::Instant;

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    /// Local counter reading at entry (`Full` mode only).
    enter_snap: Option<CounterSnapshot>,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
    static CONTEXT: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Sets the thread's context label (e.g. the current workload name);
/// stamped onto every event this thread emits.
pub fn set_context(ctx: &str) {
    CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        c.clear();
        c.push_str(ctx);
    });
}

/// The thread's current context label.
pub fn context() -> String {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Current span nesting depth on this thread (0 = no open span).
pub fn current_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// Closes its span when dropped. Construct via [`span!`](crate::span!).
#[must_use = "a span measures the scope of its guard; bind it to a variable"]
pub struct SpanGuard {
    /// `None` when telemetry was off at entry (the guard is inert).
    name: Option<&'static str>,
}

/// Used by the `span!` macro.
#[doc(hidden)]
pub fn enter(name: &'static str) -> SpanGuard {
    let mode = crate::mode();
    if mode == Mode::Off || crate::is_muted() {
        return SpanGuard { name: None };
    }
    let enter_snap = (mode == Mode::Full).then(counters::local_snapshot);
    STACK.with(|s| {
        s.borrow_mut().push(ActiveSpan {
            name,
            start: Instant::now(),
            enter_snap,
        })
    });
    SpanGuard { name: Some(name) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(name) = self.name else { return };
        let Some(span) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            match s.last() {
                Some(top) if top.name == name => s.pop(),
                _ => {
                    // Out-of-order drop: the program moved a guard across
                    // scopes. Report rather than corrupt the stack.
                    crate::log!(
                        warn,
                        "span guard `{name}` dropped out of LIFO order; event skipped"
                    );
                    None
                }
            }
        }) else {
            return;
        };
        // The mode may have turned off since the span opened (another
        // thread's `set_mode`); `Off` records nothing, whatever it was at
        // entry. The stack entry is popped either way.
        if crate::mode() == Mode::Off {
            return;
        }
        let dur = span.start.elapsed();
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);

        // Aggregate into counters in both enabled modes. Dynamic names
        // are interned once per distinct span name.
        let ns_slot = counters::register_dynamic(format!("span.{name}.ns"));
        let calls_slot = counters::register_dynamic(format!("span.{name}.calls"));
        counters::add_to_slot(ns_slot, dur_ns);
        counters::add_to_slot(calls_slot, 1);

        if let Some(enter_snap) = span.enter_snap {
            let deltas = counters::local_snapshot().delta(&enter_snap);
            let (parent, depth) = STACK.with(|s| {
                let s = s.borrow();
                (s.last().map(|p| p.name.to_string()), s.len() as u32)
            });
            journal::emit(&Event {
                ts_ns: journal::now_ns(),
                kind: "span".to_string(),
                name: name.to_string(),
                ctx: context(),
                parent,
                depth,
                dur_ns,
                counters: deltas
                    .iter()
                    .filter(|(n, v)| *v > 0 && !n.starts_with("span."))
                    .map(|(n, v)| (n.to_string(), v))
                    .collect(),
            });
        }
    }
}

/// Opens a timed span; the returned guard closes it on drop.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_unwind() {
        let _l = crate::counters::test_mutex().lock().unwrap();
        crate::set_mode(Mode::Counters);
        assert_eq!(current_depth(), 0);
        {
            let _a = crate::span!("test.outer");
            assert_eq!(current_depth(), 1);
            {
                let _b = crate::span!("test.inner");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
        let snap = counters::local_snapshot();
        assert_eq!(snap.get("span.test.outer.calls"), 1);
        assert!(snap.get("span.test.outer.ns") > 0);
        crate::set_mode(Mode::Off);
    }

    #[test]
    fn muted_work_records_nothing_and_unmutes_after() {
        let _l = crate::counters::test_mutex().lock().unwrap();
        crate::set_mode(Mode::Counters);
        let before = counters::local_snapshot();
        crate::muted(|| {
            let _a = crate::span!("test.muted");
            assert_eq!(current_depth(), 0);
            crate::counter!("test.muted_widgets").add(3);
        });
        assert_eq!(counters::local_snapshot().delta(&before).nonzero(), vec![]);
        crate::counter!("test.muted_widgets").add(2);
        let delta = counters::local_snapshot().delta(&before);
        assert_eq!(delta.get("test.muted_widgets"), 2, "recording resumes");
        crate::set_mode(Mode::Off);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _l = crate::counters::test_mutex().lock().unwrap();
        crate::set_mode(Mode::Off);
        let before = counters::local_snapshot();
        {
            let _a = crate::span!("test.off");
            assert_eq!(current_depth(), 0);
        }
        let delta = counters::local_snapshot().delta(&before);
        assert_eq!(delta.get("span.test.off.calls"), 0);
    }

    #[test]
    fn span_closed_after_mode_turns_off_records_nothing() {
        let _l = crate::counters::test_mutex().lock().unwrap();
        crate::set_mode(Mode::Counters);
        let span = crate::span!("test.switched_off");
        assert_eq!(current_depth(), 1);
        let before_local = counters::local_snapshot();
        let before_global = counters::global_snapshot();
        crate::set_mode(Mode::Off);
        drop(span);
        assert_eq!(current_depth(), 0, "the stack entry is popped");
        let local = counters::local_snapshot().delta(&before_local);
        let global = counters::global_snapshot().delta(&before_global);
        assert_eq!(local.nonzero(), vec![], "local counters moved under Off");
        assert_eq!(local.get("span.test.switched_off.calls"), 0);
        assert_eq!(global.get("span.test.switched_off.calls"), 0);
        assert_eq!(global.get("span.test.switched_off.ns"), 0);
    }

    #[test]
    fn context_is_per_thread() {
        set_context("workload-a");
        assert_eq!(context(), "workload-a");
        std::thread::spawn(|| assert_eq!(context(), ""))
            .join()
            .unwrap();
        set_context("");
    }
}
