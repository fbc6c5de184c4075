//! An rr-style full record/replay engine.
//!
//! Mozilla rr records every source of nondeterminism — syscall results,
//! signal/preemption points, rdtsc — by running the tracee under a
//! supervisor process. The recording itself is cheap; the cost is the
//! *interception machinery*: every scheduling decision enters the
//! supervisor (performance-counter read, context switch, bookkeeping), and
//! every input syscall's buffers are copied and checksummed into the trace.
//!
//! [`RrRecorder`] models those costs with real work (buffer hashing and
//! serialization) so that Fig. 6's overhead comparison measures genuine
//! wall-clock ratios rather than fabricated constants. [`RrLog::replay`]
//! then demonstrates the accuracy side: the log deterministically recreates
//! the run.

use er_minilang::env::{Env, InputEvent};
use er_minilang::interp::SchedConfig;
use er_minilang::ir::FuncId;
use er_minilang::trace::TraceSink;

/// One recorded nondeterministic event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RrEvent {
    /// An input syscall: stream, offset, and the bytes read.
    Input {
        /// Stream id.
        source: u32,
        /// Offset within the stream.
        offset: usize,
        /// Bytes consumed.
        bytes: Vec<u8>,
    },
    /// A clock read.
    Clock(u64),
    /// A scheduling decision: thread `tid` resumed at virtual time `tsc`.
    Schedule {
        /// Thread id.
        tid: u64,
        /// Virtual timestamp.
        tsc: u64,
    },
}

/// The serialized recording of one run.
#[derive(Debug, Clone, Default)]
pub struct RrLog {
    /// Events in order.
    pub events: Vec<RrEvent>,
    /// Serialized trace bytes (what would be written to disk).
    pub trace_bytes: u64,
    /// The schedule the run used (needed for deterministic replay).
    pub sched: Option<SchedConfig>,
}

impl RrLog {
    /// Rebuilds the recorded input environment.
    pub fn rebuild_env(&self) -> Env {
        let mut env = Env::new();
        for ev in &self.events {
            if let RrEvent::Input { source, bytes, .. } = ev {
                env.push_input(*source, bytes);
            }
        }
        env
    }

    /// Deterministically replays the recording against `program`.
    ///
    /// # Panics
    ///
    /// Panics if the log was produced without schedule information.
    pub fn replay(
        &self,
        program: &er_minilang::ir::Program,
    ) -> er_minilang::interp::RunReport<er_minilang::trace::NullSink> {
        let sched = self.sched.expect("log carries the schedule");
        er_minilang::interp::Machine::new(program, self.rebuild_env())
            .with_sched(sched)
            .run()
    }
}

/// The online recorder; implements the interpreter's [`TraceSink`].
#[derive(Debug, Default)]
pub struct RrRecorder {
    log: RrLog,
    /// Rolling checksum standing in for rr's trace integrity hashing.
    checksum: u64,
    /// Scratch modeling the supervisor's saved-state page.
    supervisor_state: Vec<u8>,
}

impl RrRecorder {
    /// A recorder that will note `sched` in its log for replay.
    pub fn new(sched: SchedConfig) -> Self {
        RrRecorder {
            log: RrLog {
                sched: Some(sched),
                ..RrLog::default()
            },
            checksum: 0xcbf2_9ce4_8422_2325,
            supervisor_state: vec![0u8; 16384],
        }
    }

    /// Finalizes and returns the log.
    pub fn finish(self) -> RrLog {
        self.log
    }

    #[inline]
    fn hash_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.checksum;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.checksum = h;
    }

    /// Models entering the supervisor: save/examine the tracee state page.
    fn supervisor_entry(&mut self) {
        let mut h = self.checksum;
        for chunk in self.supervisor_state.chunks_exact(8) {
            let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Touch the page so the work is not optimized away.
        let n = self.supervisor_state.len() as u64;
        self.supervisor_state[(h % n) as usize] = h as u8;
        self.checksum = h;
    }

    /// The recorded event count.
    pub fn event_count(&self) -> usize {
        self.log.events.len()
    }
}

impl TraceSink for RrRecorder {
    #[inline]
    fn cond_branch(&mut self, _taken: bool) {
        // rr does not trace branches.
    }

    #[inline]
    fn call(&mut self, _func: FuncId) {}

    fn input(&mut self, event: &InputEvent) {
        // Syscall interception: enter the supervisor, copy and checksum the
        // buffer, serialize the event record.
        er_telemetry::counter!("rr.inputs_intercepted").incr();
        self.supervisor_entry();
        self.hash_bytes(event.bytes());
        self.log.trace_bytes += 16 + event.bytes().len() as u64;
        self.log.events.push(RrEvent::Input {
            source: event.source,
            offset: event.offset,
            bytes: event.bytes().to_vec(),
        });
    }

    fn clock_read(&mut self, value: u64) {
        er_telemetry::counter!("rr.clocks_intercepted").incr();
        self.supervisor_entry();
        self.log.trace_bytes += 9;
        self.log.events.push(RrEvent::Clock(value));
    }

    fn thread_resume(&mut self, tid: u64, tsc: u64) {
        // Every preemption goes through the supervisor: perf-counter read,
        // context save, scheduling bookkeeping.
        er_telemetry::counter!("rr.schedules_intercepted").incr();
        self.supervisor_entry();
        self.supervisor_entry();
        self.log.trace_bytes += 17;
        self.log.events.push(RrEvent::Schedule { tid, tsc });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;
    use er_minilang::interp::{Machine, RunOutcome};

    fn record(
        src: &str,
        inputs: &[(u32, Vec<u8>)],
        sched: SchedConfig,
    ) -> (er_minilang::ir::Program, RunOutcome, RrLog) {
        let program = compile(src).unwrap();
        let mut env = Env::new();
        for (s, b) in inputs {
            env.push_input(*s, b);
        }
        let report = Machine::with_sink(&program, env, RrRecorder::new(sched))
            .with_sched(sched)
            .run();
        let log = report.sink.finish();
        (program, report.outcome, log)
    }

    #[test]
    fn records_inputs_and_replays_identically() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                let b: u32 = input_u32(0);
                if a > b { print(a - b); } else { print(b - a); }
            }
        "#;
        let sched = SchedConfig::default();
        let (program, outcome, log) = record(
            src,
            &[(0, [9u32.to_le_bytes(), 4u32.to_le_bytes()].concat())],
            sched,
        );
        assert!(matches!(outcome, RunOutcome::Completed));
        assert_eq!(
            log.events
                .iter()
                .filter(|e| matches!(e, RrEvent::Input { .. }))
                .count(),
            2
        );
        assert!(log.trace_bytes > 0);
        let replay = log.replay(&program);
        assert_eq!(replay.output, vec![5]);
    }

    #[test]
    fn replays_multithreaded_failures() {
        let src = r#"
            global counter: u32;
            fn w(n: u32) {
                for i: u32 = 0; i < n; i = i + 1 {
                    let c: u32 = counter;
                    counter = c + 1;
                }
            }
            fn main() {
                let t1: u64 = spawn w(500);
                let t2: u64 = spawn w(500);
                join(t1);
                join(t2);
                assert(counter == 1000, "lost update");
            }
        "#;
        // Find a schedule that loses an update.
        let program = compile(src).unwrap();
        let mut found = None;
        for seed in 0..32 {
            let sched = SchedConfig {
                quantum: 61,
                seed,
                max_instrs: 50_000_000,
            };
            let report = Machine::with_sink(&program, Env::new(), RrRecorder::new(sched))
                .with_sched(sched)
                .run();
            if let RunOutcome::Failure(f) = report.outcome {
                found = Some((f, report.sink.finish()));
                break;
            }
        }
        let (failure, log) = found.expect("some schedule loses an update");
        // Full record/replay reproduces the concurrency failure exactly.
        let replay = log.replay(&program);
        let RunOutcome::Failure(f2) = replay.outcome else {
            panic!("replay must fail identically")
        };
        assert!(f2.same_failure(&failure));
    }

    #[test]
    fn schedule_events_are_recorded() {
        let src = "fn main() { let i: u32 = 0; while i < 5000 { i = i + 1; } print(i); }";
        let sched = SchedConfig {
            quantum: 500,
            seed: 3,
            max_instrs: 10_000_000,
        };
        let (_, _, log) = record(src, &[], sched);
        let scheds = log
            .events
            .iter()
            .filter(|e| matches!(e, RrEvent::Schedule { .. }))
            .count();
        assert!(scheds > 5, "quantum expiries are intercepted: {scheds}");
    }
}
