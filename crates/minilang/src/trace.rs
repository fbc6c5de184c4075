//! Trace sinks: the interpreter's observation interface.
//!
//! The concrete interpreter reports control-flow and data events through a
//! [`TraceSink`]. Different sinks model different monitoring systems:
//!
//! * `NullSink` — no monitoring (the overhead baseline),
//! * `er_pt::PtSink` — Intel-PT-style packetized tracing (ER's runtime),
//! * `er_baselines::rr::RrRecorder` — full input/schedule recording.
//!
//! Keeping the interface here (and tiny) is what lets Fig. 6's overhead
//! comparison measure only the cost each monitoring strategy adds.

use crate::env::InputEvent;
use crate::ir::FuncId;

/// Receives execution events from the interpreter.
///
/// All methods default to no-ops so sinks implement only what they observe.
pub trait TraceSink {
    /// Whether this sink records a [`WarmStart`](crate::interp::WarmStart):
    /// the interpreter then reports each branch, call and return event's
    /// instruction count through [`at`](Self::at) first, reports every pc
    /// it enters the code at through [`enter`](Self::enter) and every
    /// allocation and release through [`memory`](Self::memory), and stops
    /// before the first op whose effect depends on the run. Only the
    /// capture's own sink sets it; for every other sink the hooks and the
    /// stop compile away.
    const RECORDS_WARM_START: bool = false;

    /// The instruction count of the event reported next, its own
    /// instruction included. Called only on a sink that
    /// [records a warm start](Self::RECORDS_WARM_START).
    #[inline]
    fn at(&mut self, icount: u64) {
        let _ = icount;
    }

    /// The block loop entered the code at `pc`: a block's start, or the
    /// op after a call the callee returned to. Called only on a sink that
    /// [records a warm start](Self::RECORDS_WARM_START).
    #[inline]
    fn enter(&mut self, pc: u32) {
        let _ = pc;
    }

    /// An op allocated or released memory. Called only on a sink that
    /// [records a warm start](Self::RECORDS_WARM_START).
    #[inline]
    fn memory(&mut self, event: MemEvent) {
        let _ = event;
    }

    /// A conditional branch executed; `taken` is its outcome (a TNT bit).
    #[inline]
    fn cond_branch(&mut self, taken: bool) {
        let _ = taken;
    }

    /// `n` conditional branches executed in turn, at most 64; the `i`-th
    /// outcome is bit `i` of `taken`, and the bits above `n` are zero.
    /// The same as `n` calls of [`cond_branch`](Self::cond_branch), which
    /// is what it defaults to; a warm start replays its prefix's branches
    /// through it.
    #[inline]
    fn cond_branches(&mut self, taken: u64, n: u32) {
        for i in 0..n {
            self.cond_branch(taken >> i & 1 != 0);
        }
    }

    /// A direct call to `func` executed (a TIP-style packet).
    #[inline]
    fn call(&mut self, func: FuncId) {
        let _ = func;
    }

    /// A function returned.
    #[inline]
    fn ret(&mut self) {}

    /// A direct call's argument values (observation hook for dynamic
    /// analyses like invariant mining; Intel PT does not see these).
    #[inline]
    fn call_args(&mut self, func: FuncId, args: &[u64]) {
        let _ = (func, args);
    }

    /// A function's return value (observation hook; not a PT event).
    #[inline]
    fn ret_value(&mut self, func: FuncId, value: u64) {
        let _ = (func, value);
    }

    /// A `ptwrite` instruction recorded `value`.
    #[inline]
    fn ptwrite(&mut self, value: u64) {
        let _ = value;
    }

    /// The scheduler switched execution to thread `tid` at virtual time
    /// `tsc` (instruction count). Models PT's per-logical-CPU timestamps.
    #[inline]
    fn thread_resume(&mut self, tid: u64, tsc: u64) {
        let _ = (tid, tsc);
    }

    /// A nondeterministic input was consumed. Intel PT does *not* see this;
    /// it exists for the record/replay baseline.
    #[inline]
    fn input(&mut self, event: &InputEvent) {
        let _ = event;
    }

    /// The virtual clock was read. Intel PT does *not* see this either.
    #[inline]
    fn clock_read(&mut self, value: u64) {
        let _ = value;
    }
}

/// An allocation or release, as a warm-start capture sees it: enough to
/// name every object live at the pause the way a symbolic executor names
/// the objects it allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// A stack allocation of `size` bytes at `base`, by an op of the block
    /// the block loop last entered.
    StackAlloc {
        /// The allocation's address.
        base: u64,
        /// The requested size.
        size: u64,
    },
    /// A return popped the stack from `top` down to `to`.
    StackRelease {
        /// The watermark the stack returns to.
        to: u64,
        /// The stack's top before the release.
        top: u64,
    },
    /// A heap allocation of `size` bytes at `base`; `base` is 0 when the
    /// heap could not hold it.
    HeapAlloc {
        /// The allocation's address, or 0.
        base: u64,
        /// The requested size.
        size: u64,
    },
    /// The heap allocation at `base` was freed.
    HeapFree {
        /// The allocation's address.
        base: u64,
    },
}

/// A decoded trace event, as a [`WarmStart`](crate::interp::WarmStart)
/// compares it with its prefix's events. A trace decoder's event type
/// implements it, so the compare needs no decoder here.
pub trait DecodedEvent {
    /// The outcome, if this is a conditional branch.
    fn branch(&self) -> Option<bool>;
    /// Whether this is a call of `func`.
    fn is_call(&self, func: FuncId) -> bool;
    /// Whether this is a return.
    fn is_ret(&self) -> bool;
}

/// A sink that observes nothing: the unmonitored production baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// An event captured by [`VecSink`]; mirrors the sink methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Conditional branch outcome.
    Branch(bool),
    /// Direct call.
    Call(FuncId),
    /// Return.
    Ret,
    /// `ptwrite` payload.
    PtWrite(u64),
    /// Thread scheduled in at a virtual time.
    ThreadResume {
        /// Thread id.
        tid: u64,
        /// Virtual timestamp (global instruction count).
        tsc: u64,
    },
    /// Input consumed.
    Input(InputEvent),
    /// Clock read.
    Clock(u64),
}

/// A sink that buffers every event — convenient for tests and for feeding
/// traces to offline analyses without packet encoding.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// All captured events in order.
    pub events: Vec<Event>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Just the branch outcomes, in order.
    pub fn branches(&self) -> Vec<bool> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Branch(b) => Some(*b),
                _ => None,
            })
            .collect()
    }

    /// Just the `ptwrite` payloads, in order.
    pub fn ptwrites(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::PtWrite(v) => Some(*v),
                _ => None,
            })
            .collect()
    }
}

impl TraceSink for VecSink {
    fn cond_branch(&mut self, taken: bool) {
        self.events.push(Event::Branch(taken));
    }

    fn call(&mut self, func: FuncId) {
        self.events.push(Event::Call(func));
    }

    fn ret(&mut self) {
        self.events.push(Event::Ret);
    }

    fn ptwrite(&mut self, value: u64) {
        self.events.push(Event::PtWrite(value));
    }

    fn thread_resume(&mut self, tid: u64, tsc: u64) {
        self.events.push(Event::ThreadResume { tid, tsc });
    }

    fn input(&mut self, event: &InputEvent) {
        self.events.push(Event::Input(*event));
    }

    fn clock_read(&mut self, value: u64) {
        self.events.push(Event::Clock(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_buffers_in_order() {
        let mut s = VecSink::new();
        s.cond_branch(true);
        s.ptwrite(42);
        s.cond_branch(false);
        s.ret();
        assert_eq!(s.branches(), vec![true, false]);
        assert_eq!(s.ptwrites(), vec![42]);
        assert_eq!(s.events.len(), 4);
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut s = NullSink;
        s.cond_branch(true);
        s.call(FuncId(0));
        s.ptwrite(1);
    }
}
