//! The logical events a reconstruction scheduler journals, with a
//! hand-rolled binary codec.
//!
//! The WAL records *events*, not state: a symbolic machine state holds an
//! expression pool and is not serializable, so recovery instead re-feeds
//! every consumed occurrence — trace bytes included — through a fresh
//! session in logged order. Each event is one scheduler transition, and
//! replay applies it through the same code the live scheduler used;
//! instrumentation plans are re-derived along the way, so they are not
//! journaled. The consumption outcome and the terminal verdict double as
//! durable *assertions*: replay cross-checks what it rebuilds against what
//! the crashed process had acknowledged.

use er_core::reconstruct::OccurrenceInfo;
use er_minilang::error::{Failure, RuntimeFault};
use er_minilang::interp::SchedConfig;
use er_minilang::ir::{FuncId, InstrId};
use er_solver::cancel::Phase;
use std::fmt;

/// Why consuming an occurrence ended the way it did — enough for replay to
/// cross-check its own step outcome against the crashed process's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumeOutcome {
    /// Session wants another occurrence under the same binary.
    NeedMore,
    /// Session wants another occurrence under a *new* binary (version
    /// bumped).
    Reinstrumented,
    /// Session closed (report follows as a [`DurableEvent::Terminal`]).
    Closed,
}

impl ConsumeOutcome {
    fn tag(self) -> u8 {
        match self {
            ConsumeOutcome::NeedMore => 0,
            ConsumeOutcome::Reinstrumented => 1,
            ConsumeOutcome::Closed => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, DecodeError> {
        Ok(match t {
            0 => ConsumeOutcome::NeedMore,
            1 => ConsumeOutcome::Reinstrumented,
            2 => ConsumeOutcome::Closed,
            _ => return Err(DecodeError::BadTag("consume outcome", t)),
        })
    }
}

/// One durable event in a reconstruction scheduler's life.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableEvent {
    /// A failure group was first sighted and a session created for it.
    SessionStarted {
        /// Group id (failure signature hash).
        group: u64,
        /// Human-readable label for reports.
        label: String,
    },
    /// An occurrence passed the scheduler's stale/duplicate checks and was
    /// queued. Carries the compressed trace so recovery does not depend on
    /// the (volatile) trace store.
    OccurrenceIngested {
        /// Owning group.
        group: u64,
        /// Binary provenance (`None` = baseline binary).
        for_group: Option<u64>,
        /// Instrumentation version that produced the trace.
        version: u32,
        /// Occurrence metadata.
        info: Box<OccurrenceInfo>,
        /// Compressed trace events (a wrapped ring's start with a `Gap`),
        /// or why the trace was undecodable.
        trace: Result<Vec<u8>, String>,
    },
    /// The session consumed the queued occurrence at `run_index`.
    OccurrenceConsumed {
        /// Owning group.
        group: u64,
        /// Which production run's occurrence was consumed.
        run_index: u64,
        /// How the iteration ended.
        outcome: ConsumeOutcome,
    },
    /// The watchdog cancelled an iteration of this group: the occurrence
    /// is retried one rung up the escalation ladder, or — with the ladder
    /// exhausted — the group closes with a typed give-up.
    WatchdogTripped {
        /// Owning group.
        group: u64,
        /// The phase whose budget tripped.
        phase: Phase,
    },
    /// The investigation closed.
    Terminal {
        /// Owning group.
        group: u64,
        /// Whether a verified test case was produced.
        reproduced: bool,
        /// Debug rendering of the outcome (for reports; replay re-derives
        /// the real one).
        reason: String,
        /// Occurrences consumed in total.
        occurrences: u32,
    },
}

impl DurableEvent {
    /// The group this event belongs to.
    pub fn group(&self) -> u64 {
        match *self {
            DurableEvent::SessionStarted { group, .. }
            | DurableEvent::OccurrenceIngested { group, .. }
            | DurableEvent::OccurrenceConsumed { group, .. }
            | DurableEvent::WatchdogTripped { group, .. }
            | DurableEvent::Terminal { group, .. } => group,
        }
    }

    /// Serializes to the WAL payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            DurableEvent::SessionStarted { group, label } => {
                w.u8(0);
                w.u64(*group);
                w.str(label);
            }
            DurableEvent::OccurrenceIngested {
                group,
                for_group,
                version,
                info,
                trace,
            } => {
                w.u8(1);
                w.u64(*group);
                w.opt_u64(*for_group);
                w.u32(*version);
                w.info(info);
                match trace {
                    Ok(bytes) => {
                        w.u8(0);
                        w.bytes(bytes);
                    }
                    Err(error) => {
                        w.u8(1);
                        w.str(error);
                    }
                }
            }
            DurableEvent::OccurrenceConsumed {
                group,
                run_index,
                outcome,
            } => {
                w.u8(2);
                w.u64(*group);
                w.u64(*run_index);
                w.u8(outcome.tag());
            }
            DurableEvent::WatchdogTripped { group, phase } => {
                w.u8(3);
                w.u64(*group);
                w.phase(*phase);
            }
            DurableEvent::Terminal {
                group,
                reproduced,
                reason,
                occurrences,
            } => {
                w.u8(4);
                w.u64(*group);
                w.bool(*reproduced);
                w.str(reason);
                w.u32(*occurrences);
            }
        }
        w.0
    }

    /// Deserializes a WAL payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a short buffer, unknown tag, or trailing
    /// bytes — all symptoms of a frame that checksummed correctly but was
    /// written by an incompatible (or corrupted) producer.
    pub fn decode(payload: &[u8]) -> Result<DurableEvent, DecodeError> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let ev = match r.u8()? {
            0 => DurableEvent::SessionStarted {
                group: r.u64()?,
                label: r.str()?,
            },
            1 => DurableEvent::OccurrenceIngested {
                group: r.u64()?,
                for_group: r.opt_u64()?,
                version: r.u32()?,
                info: Box::new(r.info()?),
                trace: match r.u8()? {
                    0 => Ok(r.bytes()?),
                    1 => Err(r.str()?),
                    t => return Err(DecodeError::BadTag("trace", t)),
                },
            },
            2 => DurableEvent::OccurrenceConsumed {
                group: r.u64()?,
                run_index: r.u64()?,
                outcome: ConsumeOutcome::from_tag(r.u8()?)?,
            },
            3 => DurableEvent::WatchdogTripped {
                group: r.u64()?,
                phase: r.phase()?,
            },
            4 => DurableEvent::Terminal {
                group: r.u64()?,
                reproduced: r.bool()?,
                reason: r.str()?,
                occurrences: r.u32()?,
            },
            t => return Err(DecodeError::BadTag("event", t)),
        };
        if r.pos != payload.len() {
            return Err(DecodeError::TrailingBytes(payload.len() - r.pos));
        }
        Ok(ev)
    }
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the field being read.
    Truncated,
    /// An enum discriminant had no meaning (`what`, value).
    BadTag(&'static str, u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The payload had this many undecoded bytes past the event.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::BadTag(what, t) => write!(f, "unknown {what} tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after event"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
    fn phase(&mut self, phase: Phase) {
        self.u8(match phase {
            Phase::Decode => 0,
            Phase::Shepherd => 1,
            Phase::Solve => 2,
            Phase::Select => 3,
        });
    }
    fn instr_id(&mut self, id: InstrId) {
        self.u32(id.func.0);
        self.u32(id.block.0);
        self.u64(id.index as u64);
    }
    fn fault(&mut self, fault: &RuntimeFault) {
        match fault {
            RuntimeFault::NullDeref { addr } => {
                self.u8(0);
                self.u64(*addr);
            }
            RuntimeFault::Unmapped { addr } => {
                self.u8(1);
                self.u64(*addr);
            }
            RuntimeFault::UseAfterFree { addr } => {
                self.u8(2);
                self.u64(*addr);
            }
            RuntimeFault::InvalidFree { addr } => {
                self.u8(3);
                self.u64(*addr);
            }
            RuntimeFault::OutOfBounds { addr, base, size } => {
                self.u8(4);
                self.u64(*addr);
                self.u64(*base);
                self.u64(*size);
            }
            RuntimeFault::Abort { message } => {
                self.u8(5);
                self.str(message);
            }
            RuntimeFault::AssertFailed { message } => {
                self.u8(6);
                self.str(message);
            }
            RuntimeFault::DivByZero => self.u8(7),
            RuntimeFault::InputExhausted { source } => {
                self.u8(8);
                self.u32(*source);
            }
            RuntimeFault::BadJoin { tid } => {
                self.u8(9);
                self.u64(*tid);
            }
            RuntimeFault::Hang => self.u8(10),
            RuntimeFault::Deadlock => self.u8(11),
        }
    }
    fn failure(&mut self, f: &Failure) {
        self.fault(&f.fault);
        self.instr_id(f.at);
        self.u64(f.call_stack.len() as u64);
        for fid in &f.call_stack {
            self.u32(fid.0);
        }
        self.u64(f.tid);
    }
    fn info(&mut self, info: &OccurrenceInfo) {
        self.u64(info.run_index);
        self.u64(info.instr_count);
        self.u64(info.trace_bytes);
        self.u64(info.sched.quantum);
        self.u64(info.sched.seed);
        self.u64(info.sched.max_instrs);
        self.failure(&info.failure);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.u64()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadUtf8)
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.u64()?),
        })
    }
    fn phase(&mut self) -> Result<Phase, DecodeError> {
        match self.u8()? {
            t @ 0..=3 => Ok(Phase::ALL[usize::from(t)]),
            t => Err(DecodeError::BadTag("phase", t)),
        }
    }
    fn instr_id(&mut self) -> Result<InstrId, DecodeError> {
        Ok(InstrId {
            func: FuncId(self.u32()?),
            block: er_minilang::ir::BlockId(self.u32()?),
            index: self.u64()? as usize,
        })
    }
    fn fault(&mut self) -> Result<RuntimeFault, DecodeError> {
        Ok(match self.u8()? {
            0 => RuntimeFault::NullDeref { addr: self.u64()? },
            1 => RuntimeFault::Unmapped { addr: self.u64()? },
            2 => RuntimeFault::UseAfterFree { addr: self.u64()? },
            3 => RuntimeFault::InvalidFree { addr: self.u64()? },
            4 => RuntimeFault::OutOfBounds {
                addr: self.u64()?,
                base: self.u64()?,
                size: self.u64()?,
            },
            5 => RuntimeFault::Abort {
                message: self.str()?,
            },
            6 => RuntimeFault::AssertFailed {
                message: self.str()?,
            },
            7 => RuntimeFault::DivByZero,
            8 => RuntimeFault::InputExhausted {
                source: self.u32()?,
            },
            9 => RuntimeFault::BadJoin { tid: self.u64()? },
            10 => RuntimeFault::Hang,
            11 => RuntimeFault::Deadlock,
            t => return Err(DecodeError::BadTag("runtime fault", t)),
        })
    }
    fn failure(&mut self) -> Result<Failure, DecodeError> {
        let fault = self.fault()?;
        let at = self.instr_id()?;
        let n = self.u64()? as usize;
        let mut call_stack = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            call_stack.push(FuncId(self.u32()?));
        }
        let tid = self.u64()?;
        Ok(Failure {
            fault,
            at,
            call_stack,
            tid,
        })
    }
    fn info(&mut self) -> Result<OccurrenceInfo, DecodeError> {
        Ok(OccurrenceInfo {
            run_index: self.u64()?,
            instr_count: self.u64()?,
            trace_bytes: self.u64()?,
            sched: SchedConfig {
                quantum: self.u64()?,
                seed: self.u64()?,
                max_instrs: self.u64()?,
            },
            failure: self.failure()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::ir::BlockId;

    fn failure(kind: u8) -> Failure {
        let fault = match kind {
            0 => RuntimeFault::NullDeref { addr: 0x10 },
            1 => RuntimeFault::OutOfBounds {
                addr: 0x30,
                base: 0x20,
                size: 8,
            },
            2 => RuntimeFault::Abort {
                message: "boom".into(),
            },
            3 => RuntimeFault::Deadlock,
            _ => RuntimeFault::InputExhausted { source: 3 },
        };
        Failure {
            fault,
            at: InstrId {
                func: FuncId(1),
                block: BlockId(2),
                index: usize::MAX, // terminator sentinel must survive the codec
            },
            call_stack: vec![FuncId(0), FuncId(1)],
            tid: 7,
        }
    }

    fn info() -> OccurrenceInfo {
        OccurrenceInfo {
            run_index: 41,
            instr_count: 100_000,
            trace_bytes: 4096,
            sched: SchedConfig {
                quantum: 100,
                seed: 9,
                max_instrs: 1_000_000,
            },
            failure: failure(2),
        }
    }

    fn sample_events() -> Vec<DurableEvent> {
        let trips = Phase::ALL.map(|phase| DurableEvent::WatchdogTripped {
            group: 0xdead,
            phase,
        });
        let mut events = vec![
            DurableEvent::SessionStarted {
                group: 0xdead,
                label: "abort@f1:b2".into(),
            },
            DurableEvent::OccurrenceIngested {
                group: 0xdead,
                for_group: Some(0xdead),
                version: 2,
                info: Box::new(info()),
                trace: Ok(vec![1, 2, 3, 0xff]),
            },
            DurableEvent::OccurrenceIngested {
                group: 0xdead,
                for_group: None,
                version: 0,
                info: Box::new(info()),
                trace: Err("decode failed: bad packet".into()),
            },
            DurableEvent::OccurrenceConsumed {
                group: 0xdead,
                run_index: 41,
                outcome: ConsumeOutcome::Reinstrumented,
            },
            DurableEvent::Terminal {
                group: 0xdead,
                reproduced: true,
                reason: "Reproduced".into(),
                occurrences: 4,
            },
        ];
        events.extend(trips);
        events
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in sample_events() {
            let bytes = ev.encode();
            let back = DurableEvent::decode(&bytes).expect("decodes");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        for ev in sample_events() {
            let bytes = ev.encode();
            for cut in 0..bytes.len() {
                // Every strict prefix must fail cleanly, never panic.
                assert!(DurableEvent::decode(&bytes[..cut]).is_err());
            }
        }
        assert_eq!(
            DurableEvent::decode(&[99]),
            Err(DecodeError::BadTag("event", 99))
        );
        let mut ok = sample_events()[0].encode();
        ok.push(0);
        assert_eq!(
            DurableEvent::decode(&ok),
            Err(DecodeError::TrailingBytes(1))
        );
    }
}
