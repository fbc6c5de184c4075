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
    /// A conditional branch executed; `taken` is its outcome (a TNT bit).
    #[inline]
    fn cond_branch(&mut self, taken: bool) {
        let _ = taken;
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
