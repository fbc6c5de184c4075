//! The shepherded symbolic machine: executes IR along a recorded trace.
//!
//! Where the concrete interpreter consults a scheduler and real inputs,
//! this machine consults the decoded Intel-PT-style event stream: branch
//! outcomes come from TNT bits, thread switches from PGE packets, and
//! recorded data values from PTW packets. Inputs become fresh symbolic
//! variables; every consumed event is validated so that divergence between
//! the trace and the execution is caught, not silently mis-replayed.

use crate::mem::SymMemory;
use crate::value::SymValue;
use er_minilang::error::{Failure, FailureKind, RuntimeFault};
use er_minilang::ir::*;
use er_minilang::mem::NULL_GUARD;
use er_minilang::value::Width;
use er_pt::packet::TraceEvent;
use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef};
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, SatResult, StallReason};
use std::collections::HashMap;

/// Configuration for a shepherded run.
#[derive(Debug, Clone, Copy)]
pub struct SymConfig {
    /// Budget for each solver query (address resolution); exhausting it is
    /// a stall, the analogue of the paper's 30 s timeout.
    pub solver_budget: Budget,
    /// Safety net on executed instructions.
    pub max_steps: u64,
    /// Ablation knob: concretize every symbolic address to its model value
    /// instead of keeping single-object accesses symbolic. Avoids array
    /// constraints entirely at the cost of over-constraining the generated
    /// input (DESIGN.md §6, item 4).
    pub always_concretize: bool,
    /// Reuse solver lowering and learned clauses across the run's queries
    /// (the path condition grows monotonically, so every query extends the
    /// previous one). Off = a fresh solver per query, the pre-incremental
    /// behavior kept as a baseline/ablation mode.
    pub incremental_solver: bool,
    /// Snapshot the machine every this many consumed trace events so a
    /// later occurrence of the same failure can resume shepherding from
    /// the last matching checkpoint instead of re-executing the prefix.
    /// `0` disables checkpointing.
    pub checkpoint_every: u64,
}

impl Default for SymConfig {
    fn default() -> Self {
        SymConfig {
            solver_budget: Budget::default(),
            max_steps: 500_000_000,
            always_concretize: false,
            incremental_solver: true,
            checkpoint_every: 1024,
        }
    }
}

/// A program input that became a symbolic variable.
#[derive(Debug, Clone)]
pub struct InputRecord {
    /// Input stream.
    pub source: u32,
    /// Byte offset within the stream.
    pub offset: usize,
    /// Width consumed.
    pub width: Width,
    /// The variable standing for the value.
    pub var: ExprRef,
    /// The `Input` instruction that consumed it.
    pub site: InstrId,
}

/// Ways the execution can disagree with the trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceDivergence {
    /// A concrete branch condition contradicted the recorded outcome.
    BranchMismatch {
        /// Where.
        at: InstrId,
    },
    /// Expected one event kind, found another (or ran out).
    EventMismatch {
        /// What the executor needed.
        wanted: &'static str,
        /// Where in execution.
        at: InstrId,
    },
    /// A recorded call/ptwrite payload contradicted execution.
    PayloadMismatch {
        /// Where.
        at: InstrId,
    },
    /// Execution faulted somewhere the production run did not.
    UnexpectedFault {
        /// The fault.
        fault: RuntimeFault,
        /// Where.
        at: InstrId,
    },
    /// Trace ended but execution never reached the failure site.
    RanPastTraceEnd,
    /// The trace contains a gap (ring-buffer wrap) and cannot be followed.
    TraceGap,
    /// A thread-resume event referenced an unknown thread.
    UnknownThread {
        /// The thread id.
        tid: u64,
    },
    /// Step budget exceeded.
    StepBudget,
}

/// How a shepherded run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ShepherdStatus {
    /// Followed the whole trace to the failure point.
    Completed,
    /// A solver query stalled (the trigger for key data value selection).
    Stalled {
        /// Why.
        reason: StallReason,
        /// At which instruction.
        at: InstrId,
    },
    /// The execution disagreed with the trace.
    Diverged(TraceDivergence),
}

/// Work counters for a shepherded run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymStats {
    /// Instructions executed.
    pub steps: u64,
    /// Solver queries issued for address resolution.
    pub solver_queries: u64,
    /// Total solver work units across queries.
    pub work_units: u64,
    /// Symbolic addresses concretized to a unique value.
    pub concretized_addrs: u64,
    /// Accesses left symbolic within one object.
    pub symbolic_accesses: u64,
    /// Recorded (PTW) values bound.
    pub ptw_bound: u64,
    /// Symbolic branch conditions resolved by the trace instead of
    /// forking (the paper's "shepherded" path explosions).
    pub forks_shepherded: u64,
    /// Memory load instructions executed.
    pub mem_reads: u64,
    /// Memory store instructions executed.
    pub mem_writes: u64,
}

/// Everything a shepherded run produces; the ER core consumes this for
/// test-case generation or key data value selection.
#[derive(Debug)]
pub struct SymRunResult {
    /// Outcome.
    pub status: ShepherdStatus,
    /// The expression pool (the constraint graph's nodes).
    pub pool: ExprPool,
    /// Path constraints gathered along the trace.
    pub path: Vec<ExprRef>,
    /// Constraint forcing the recorded failure at the failure site.
    pub failure_constraint: Option<ExprRef>,
    /// Symbolic inputs created.
    pub inputs: Vec<InputRecord>,
    /// First definition site of each symbolic expression.
    pub origins: HashMap<ExprRef, InstrId>,
    /// Dynamic execution count per value-defining site.
    pub site_counts: HashMap<InstrId, u64>,
    /// Longest symbolic write chain (paper complexity source 1).
    pub longest_chain: u64,
    /// The expression whose solver query stalled, if any — the seed for the
    /// stall-site fallback in key data value selection.
    pub stall_subject: Option<ExprRef>,
    /// Work counters.
    pub stats: SymStats,
    /// Machine snapshots taken along the run (newest last), reusable to
    /// resume shepherding a later trace that shares an event prefix.
    pub checkpoints: Vec<MachineState>,
    /// The run's solver engine, its committed prefix a prefix of `path`.
    /// The final input solve continues from it, so only constraints added
    /// after the last query (and the failure constraint) are lowered. In
    /// the non-incremental baseline mode no query touches it, so the final
    /// solve starts fresh.
    pub solver: IncrementalSolver,
}

/// A resumable snapshot of the symbolic machine, taken at an event-cursor
/// boundary during a run.
///
/// A snapshot of a run over events `E` captures everything the first
/// `cursor` events determined. A later trace `E'` of the same program with
/// the same instrumentation-agnostic behavior satisfies: if
/// `E[..cursor] == E'[..cursor]`, resuming from the snapshot is
/// indistinguishable from re-executing `E'[..cursor]` from scratch —
/// branches, thread switches, and recorded PTW values are the events
/// themselves, so identical prefixes drive identical state.
///
/// When the next occurrence runs under *different instrumentation*, frame
/// positions and site references must first be translated through the two
/// instrumentation maps; see [`MachineState::remap_sites`].
#[derive(Debug, Clone)]
pub struct MachineState {
    cursor: usize,
    pool: ExprPool,
    path: Vec<ExprRef>,
    mem: SymMemory,
    threads: Vec<SymThread>,
    cur: usize,
    lock_owner: HashMap<u64, u64>,
    next_tid: u64,
    inputs: Vec<InputRecord>,
    input_offsets: HashMap<u32, usize>,
    origins: HashMap<ExprRef, InstrId>,
    site_counts: HashMap<InstrId, u64>,
    clock: u64,
    stats: SymStats,
    heap_seq: u64,
    inc: IncrementalSolver,
}

impl MachineState {
    /// The event-cursor position this snapshot was taken at: resuming is
    /// valid against any trace whose prefix is *semantically* equal to the
    /// first `cursor()` events of the snapshot's own trace (equal modulo
    /// timestamps and quantum-boundary resumes of the running thread — the
    /// same events the run loop skips without touching machine state).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Retargets the snapshot at a cursor position in a *different* trace
    /// whose prefix up to `cursor` is semantically equal to this snapshot's
    /// own prefix. The caller (the reconstruction driver) establishes that
    /// equivalence by aligning the two event streams.
    pub fn with_cursor(mut self, cursor: usize) -> MachineState {
        self.cursor = cursor;
        self
    }

    /// Translates every instruction reference through `f` (typically
    /// old-instrumentation → original → new-instrumentation), returning
    /// `None` — discard the snapshot — if any reference has no image, e.g.
    /// a frame paused exactly at an instruction the old instrumentation
    /// inserted.
    ///
    /// `new_program` is the program the resumed run will execute; it is
    /// needed to re-derive end-of-block instruction pointers, whose numeric
    /// value depends on how many instructions the new instrumentation
    /// inserted into the block.
    pub fn remap_sites(
        mut self,
        new_program: &Program,
        mut f: impl FnMut(InstrId) -> Option<InstrId>,
    ) -> Option<MachineState> {
        for t in &mut self.threads {
            for fr in &mut t.frames {
                // Snapshots store end-of-block positions as the TERMINATOR
                // sentinel (see `snapshot`), so the raw ip never needs the
                // old program's block lengths to interpret.
                let id = InstrId {
                    func: fr.func,
                    block: fr.block,
                    index: fr.ip,
                };
                let mapped = f(id)?;
                fr.func = mapped.func;
                fr.block = mapped.block;
                fr.ip = if mapped.index == InstrId::TERMINATOR {
                    new_program
                        .func(mapped.func)
                        .block(mapped.block)
                        .instrs
                        .len()
                } else {
                    mapped.index
                };
            }
        }
        let mut site_counts = HashMap::with_capacity(self.site_counts.len());
        for (site, n) in self.site_counts.drain() {
            site_counts.insert(f(site)?, n);
        }
        self.site_counts = site_counts;
        let mut origins = HashMap::with_capacity(self.origins.len());
        for (e, site) in self.origins.drain() {
            origins.insert(e, f(site)?);
        }
        self.origins = origins;
        for rec in &mut self.inputs {
            rec.site = f(rec.site)?;
        }
        Some(self)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedLock(u64),
    BlockedJoin(u64),
    Done,
}

#[derive(Debug, Clone)]
struct SymFrame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<SymValue>,
    ret_dst: Option<Reg>,
    stack_mark: u64,
}

#[derive(Debug, Clone)]
struct SymThread {
    tid: u64,
    frames: Vec<SymFrame>,
    state: ThreadState,
}

enum StepOutcome {
    Continue,
    Blocked,
    ThreadDone,
    /// The trace scheduled another thread; this step did not execute.
    SwitchDue,
}

enum Stop {
    Stall(StallReason, Option<ExprRef>),
    Diverge(TraceDivergence),
}

/// The shepherded symbolic executor.
#[derive(Debug)]
pub struct SymMachine<'p> {
    program: &'p Program,
    config: SymConfig,
    pool: ExprPool,
    path: Vec<ExprRef>,
    mem: SymMemory,
    threads: Vec<SymThread>,
    cur: usize,
    lock_owner: HashMap<u64, u64>,
    next_tid: u64,
    inputs: Vec<InputRecord>,
    input_offsets: HashMap<u32, usize>,
    origins: HashMap<ExprRef, InstrId>,
    site_counts: HashMap<InstrId, u64>,
    clock: u64,
    stats: SymStats,
    heap_seq: u64,
    inc: IncrementalSolver,
    checkpoints: Vec<MachineState>,
    checkpoint_interval: u64,
    next_checkpoint_at: usize,
    start_cursor: usize,
}

impl<'p> SymMachine<'p> {
    /// A machine ready to follow a trace of `program`.
    pub fn new(program: &'p Program, config: SymConfig) -> Self {
        let mem = SymMemory::new(program);
        let main = SymThread {
            tid: 0,
            frames: vec![SymFrame {
                func: program.entry,
                block: BlockId(0),
                ip: 0,
                regs: vec![SymValue::Concrete(0); program.func(program.entry).n_regs],
                ret_dst: None,
                stack_mark: mem.stack_watermark(0),
            }],
            state: ThreadState::Runnable,
        };
        SymMachine {
            program,
            config,
            pool: ExprPool::new(),
            path: Vec::new(),
            mem,
            threads: vec![main],
            cur: 0,
            lock_owner: HashMap::new(),
            next_tid: 1,
            inputs: Vec::new(),
            input_offsets: HashMap::new(),
            origins: HashMap::new(),
            site_counts: HashMap::new(),
            clock: 0,
            stats: SymStats::default(),
            heap_seq: 0,
            inc: IncrementalSolver::new(),
            checkpoints: Vec::new(),
            checkpoint_interval: config.checkpoint_every,
            next_checkpoint_at: usize::MAX,
            start_cursor: 0,
        }
    }

    /// A machine that picks up from `state`, skipping the events before
    /// `state.cursor()`. The caller must guarantee the trace passed to
    /// [`SymMachine::run`] agrees with the snapshot's trace on that prefix
    /// (and must have remapped sites if instrumentation changed).
    pub fn resume(program: &'p Program, config: SymConfig, state: MachineState) -> Self {
        // The resume state itself is the run's first checkpoint: without it,
        // a resumed run that starts past the shared prefix would snapshot
        // nothing inside it, and the *next* occurrence would have to
        // re-execute the whole prefix again. Re-normalize end-of-block
        // frame positions to the TERMINATOR sentinel (the caller's
        // `remap_sites` resolved them to this program's block lengths).
        let mut seed = state.clone();
        for t in &mut seed.threads {
            for fr in &mut t.frames {
                if fr.ip >= program.func(fr.func).block(fr.block).instrs.len() {
                    fr.ip = InstrId::TERMINATOR;
                }
            }
        }
        SymMachine {
            program,
            config,
            pool: state.pool,
            path: state.path,
            mem: state.mem,
            threads: state.threads,
            cur: state.cur,
            lock_owner: state.lock_owner,
            next_tid: state.next_tid,
            inputs: state.inputs,
            input_offsets: state.input_offsets,
            origins: state.origins,
            site_counts: state.site_counts,
            clock: state.clock,
            stats: state.stats,
            heap_seq: state.heap_seq,
            inc: state.inc,
            checkpoints: vec![seed],
            checkpoint_interval: config.checkpoint_every,
            next_checkpoint_at: usize::MAX,
            start_cursor: state.cursor,
        }
    }

    /// Follows `events` to the end; `failure` is the production failure the
    /// trace leads to (`None` for a trace of a completed run). A machine
    /// built by [`SymMachine::resume`] starts at its snapshot's cursor.
    pub fn run(mut self, events: &[TraceEvent], failure: Option<&Failure>) -> SymRunResult {
        let base = self.stats;
        self.next_checkpoint_at = if self.checkpoint_interval > 0 {
            self.start_cursor + self.checkpoint_interval as usize
        } else {
            usize::MAX
        };
        let start = self.start_cursor;
        let status = self.run_loop(events, failure, start);
        let mut stall_subject = None;
        let (status, failure_constraint) = match status {
            Ok(fc) => (ShepherdStatus::Completed, fc),
            Err(Stop::Stall(reason, subject)) => {
                stall_subject = subject;
                (
                    ShepherdStatus::Stalled {
                        reason,
                        at: self.position(),
                    },
                    None,
                )
            }
            Err(Stop::Diverge(d)) => (ShepherdStatus::Diverged(d), None),
        };
        let longest_chain = self.mem.longest_write_chain(&self.pool);
        if er_telemetry::enabled() {
            // One batched update per shepherded run; the step loop carries
            // only plain field increments. Deltas, not totals: a resumed
            // run inherits its snapshot's counters and must only report the
            // work it actually did.
            er_telemetry::counter!("symex.steps").add(self.stats.steps - base.steps);
            er_telemetry::counter!("symex.solver_queries")
                .add(self.stats.solver_queries - base.solver_queries);
            er_telemetry::counter!("symex.forks_shepherded")
                .add(self.stats.forks_shepherded - base.forks_shepherded);
            er_telemetry::counter!("symex.mem_reads").add(self.stats.mem_reads - base.mem_reads);
            er_telemetry::counter!("symex.mem_writes").add(self.stats.mem_writes - base.mem_writes);
            er_telemetry::counter!("symex.ptw_bound").add(self.stats.ptw_bound - base.ptw_bound);
            er_telemetry::histogram!("symex.write_chain_len").record(longest_chain);
        }
        SymRunResult {
            status,
            pool: self.pool,
            path: self.path,
            failure_constraint,
            inputs: self.inputs,
            origins: self.origins,
            site_counts: self.site_counts,
            longest_chain,
            stall_subject,
            stats: self.stats,
            checkpoints: self.checkpoints,
            solver: self.inc,
        }
    }

    /// Captures a resumable snapshot at event position `cursor`. Frame
    /// instruction pointers sitting at a block's end are normalized to the
    /// TERMINATOR sentinel so the snapshot can be interpreted without this
    /// machine's program (block lengths change under re-instrumentation).
    fn snapshot(&self, cursor: usize) -> MachineState {
        let mut threads = self.threads.clone();
        for t in &mut threads {
            for fr in &mut t.frames {
                let len = self.program.func(fr.func).block(fr.block).instrs.len();
                if fr.ip >= len {
                    fr.ip = InstrId::TERMINATOR;
                }
            }
        }
        MachineState {
            cursor,
            pool: self.pool.clone(),
            path: self.path.clone(),
            mem: self.mem.clone(),
            threads,
            cur: self.cur,
            lock_owner: self.lock_owner.clone(),
            next_tid: self.next_tid,
            inputs: self.inputs.clone(),
            input_offsets: self.input_offsets.clone(),
            origins: self.origins.clone(),
            site_counts: self.site_counts.clone(),
            clock: self.clock,
            stats: self.stats,
            heap_seq: self.heap_seq,
            inc: self.inc.clone(),
        }
    }

    const MAX_CHECKPOINTS: usize = 8;

    fn take_checkpoint(&mut self, cursor: usize) {
        if self.checkpoints.len() >= Self::MAX_CHECKPOINTS {
            // Thin the ring: drop every other snapshot and double the
            // interval, keeping bounded memory with coverage of the whole
            // run (the densest snapshots stay near the start, where a new
            // trace's shared prefix is most likely to end).
            let mut keep = false;
            self.checkpoints.retain(|_| {
                keep = !keep;
                keep
            });
            self.checkpoint_interval = self.checkpoint_interval.saturating_mul(2);
        }
        self.checkpoints.push(self.snapshot(cursor));
        self.next_checkpoint_at = cursor + self.checkpoint_interval as usize;
    }

    /// One solver query against the current path condition plus
    /// `assumptions`, routed through the persistent incremental engine (or
    /// a throwaway one in the non-incremental baseline mode).
    fn query(&mut self, assumptions: &[ExprRef], budget: &Budget) -> SatResult {
        self.stats.solver_queries += 1;
        let (r, work) = if self.config.incremental_solver {
            let r = self
                .inc
                .check_assuming(&mut self.pool, &self.path, assumptions, budget);
            (r, self.inc.last_stats().work_units())
        } else {
            let mut fresh = IncrementalSolver::new();
            let r = fresh.check_assuming(&mut self.pool, &self.path, assumptions, budget);
            (r, fresh.last_stats().work_units())
        };
        self.stats.work_units += work;
        r
    }

    fn position(&self) -> InstrId {
        let f = self.threads[self.cur].frames.last();
        match f {
            Some(f) => {
                let blk = self.program.func(f.func).block(f.block);
                InstrId {
                    func: f.func,
                    block: f.block,
                    index: if f.ip < blk.instrs.len() {
                        f.ip
                    } else {
                        InstrId::TERMINATOR
                    },
                }
            }
            None => InstrId {
                func: self.program.entry,
                block: BlockId(0),
                index: 0,
            },
        }
    }

    fn switch_to(&mut self, tid: u64) -> Result<(), Stop> {
        let Some(idx) = self.threads.iter().position(|t| t.tid == tid) else {
            return Err(Stop::Diverge(TraceDivergence::UnknownThread { tid }));
        };
        self.cur = idx;
        // The production scheduler only resumes runnable (or just-woken)
        // threads; trust it.
        if self.threads[idx].state != ThreadState::Done {
            self.threads[idx].state = ThreadState::Runnable;
        }
        Ok(())
    }

    /// Skips timestamps and reports whether a thread switch is the next
    /// semantic event. Threads run until they *request* an event; only then
    /// may the production scheduler's PGE packet take effect — otherwise a
    /// thread's straight-line tail (e.g. a `spawn`) would be skipped.
    fn switch_pending(&self, events: &[TraceEvent], cursor: &mut usize) -> bool {
        while let Some(TraceEvent::Timestamp(_)) = events.get(*cursor) {
            *cursor += 1;
        }
        matches!(events.get(*cursor), Some(TraceEvent::ThreadResume(_)))
    }

    fn run_loop(
        &mut self,
        events: &[TraceEvent],
        failure: Option<&Failure>,
        start_cursor: usize,
    ) -> Result<Option<ExprRef>, Stop> {
        let mut cursor = start_cursor;
        loop {
            if self.config.checkpoint_every > 0 && cursor >= self.next_checkpoint_at {
                self.take_checkpoint(cursor);
            }
            // Timestamps are informational. A resume of the *currently
            // running* thread is a quantum boundary — a scheduling no-op
            // here, consumed greedily so it cannot later be mistaken for a
            // wake-up of a blocked thread.
            loop {
                match events.get(cursor) {
                    Some(TraceEvent::Timestamp(_)) => cursor += 1,
                    Some(TraceEvent::ThreadResume(t))
                        if *t == self.threads[self.cur].tid
                            && self.threads[self.cur].state == ThreadState::Runnable =>
                    {
                        cursor += 1;
                    }
                    _ => break,
                }
            }
            if let Some(TraceEvent::Gap) = events.get(cursor) {
                return Err(Stop::Diverge(TraceDivergence::TraceGap));
            }

            self.stats.steps += 1;
            if self.stats.steps > self.config.max_steps {
                return Err(Stop::Diverge(TraceDivergence::StepBudget));
            }
            // One supervised shepherd work unit per step. Stalling here
            // (rather than at an arbitrary instruction boundary) leaves the
            // machine consistent: no event half-applied, checkpoints intact.
            if er_solver::cancel::tick(1) {
                return Err(Stop::Stall(StallReason::Cancelled, None));
            }

            let at = self.position();
            let events_left = cursor < events.len();

            // End-of-trace handling: once events run out, keep executing
            // straight-line code until the failure site (or conclude for
            // liveness failures, whose traces end mid-flight).
            if !events_left {
                if let Some(f) = failure {
                    if matches!(f.fault.kind(), FailureKind::Liveness) {
                        return Ok(None);
                    }
                    if at == f.at && self.threads[self.cur].tid == f.tid {
                        return self.failure_constraint(f);
                    }
                } else if self.threads.iter().all(|t| t.state == ThreadState::Done) {
                    return Ok(None);
                }
            }

            if !matches!(self.threads[self.cur].state, ThreadState::Runnable) {
                // Current thread cannot run; the trace must name a successor.
                match events.get(cursor) {
                    Some(TraceEvent::ThreadResume(tid)) => {
                        let tid = *tid;
                        cursor += 1;
                        self.switch_to(tid)?;
                        continue;
                    }
                    Some(_) => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "thread resume",
                            at,
                        }))
                    }
                    None => {
                        if failure.is_none()
                            && self.threads.iter().all(|t| t.state == ThreadState::Done)
                        {
                            return Ok(None);
                        }
                        return Err(Stop::Diverge(TraceDivergence::RanPastTraceEnd));
                    }
                }
            }

            match self.step(events, &mut cursor, at)? {
                StepOutcome::SwitchDue => match events.get(cursor) {
                    Some(TraceEvent::ThreadResume(tid)) => {
                        let tid = *tid;
                        cursor += 1;
                        self.switch_to(tid)?;
                    }
                    _ => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "thread resume",
                            at,
                        }))
                    }
                },
                StepOutcome::Continue | StepOutcome::Blocked | StepOutcome::ThreadDone => {}
            }
        }
    }

    fn step(
        &mut self,
        events: &[TraceEvent],
        cursor: &mut usize,
        at: InstrId,
    ) -> Result<StepOutcome, Stop> {
        let (func, block, ip) = {
            let f = self.threads[self.cur].frames.last().expect("live frame");
            (f.func, f.block, f.ip)
        };
        let blk = self.program.func(func).block(block);
        if ip >= blk.instrs.len() {
            // Branch and Return terminators consume events; yield to a
            // pending thread switch first.
            if !matches!(blk.term, Some(Terminator::Jump(_))) && self.switch_pending(events, cursor)
            {
                return Ok(StepOutcome::SwitchDue);
            }
            return self.exec_terminator(events, cursor, at, func, block);
        }
        let instr = blk.instrs[ip].clone();
        if matches!(instr, Instr::Call { .. } | Instr::PtWrite { .. })
            && self.switch_pending(events, cursor)
        {
            return Ok(StepOutcome::SwitchDue);
        }
        if instr.dst().is_some() {
            *self.site_counts.entry(at).or_insert(0) += 1;
        }
        self.exec_instr(events, cursor, at, &instr)
    }

    fn consume_event<'e>(
        &mut self,
        events: &'e [TraceEvent],
        cursor: &mut usize,
        wanted: &'static str,
        at: InstrId,
    ) -> Result<&'e TraceEvent, Stop> {
        // Timestamps may precede the payload event; thread switches may NOT
        // be skipped here (the run loop prelude handles them before each
        // step), so seeing one means production switched before this event.
        while let Some(TraceEvent::Timestamp(_)) = events.get(*cursor) {
            *cursor += 1;
        }
        match events.get(*cursor) {
            Some(ev) if !matches!(ev, TraceEvent::ThreadResume(_) | TraceEvent::Gap) => {
                *cursor += 1;
                Ok(ev)
            }
            _ => Err(Stop::Diverge(TraceDivergence::EventMismatch { wanted, at })),
        }
    }

    fn operand(&self, op: Operand) -> SymValue {
        match op {
            Operand::Reg(r) => {
                self.threads[self.cur]
                    .frames
                    .last()
                    .expect("live frame")
                    .regs[r.0 as usize]
            }
            Operand::Imm(v) => SymValue::Concrete(v),
        }
    }

    fn set_reg(&mut self, r: Reg, v: SymValue, site: InstrId) {
        if let SymValue::Sym(e) = v {
            self.origins.entry(e).or_insert(site);
        }
        self.threads[self.cur]
            .frames
            .last_mut()
            .expect("live frame")
            .regs[r.0 as usize] = v;
    }

    fn advance_ip(&mut self) {
        self.threads[self.cur]
            .frames
            .last_mut()
            .expect("live frame")
            .ip += 1;
    }

    fn push_constraint(&mut self, c: ExprRef) {
        if self.pool.as_const(c) != Some(1) {
            self.path.push(c);
        }
    }

    /// Resolves a memory address operand into a concrete address or a
    /// (single-object) symbolic access.
    fn resolve_addr(
        &mut self,
        addr: SymValue,
        width: Width,
        at: InstrId,
    ) -> Result<MemTarget, Stop> {
        match addr {
            SymValue::Concrete(a) => Ok(MemTarget::Concrete(a)),
            SymValue::Sym(_) => {
                let e = addr.to_expr(&mut self.pool, 64);
                let budget = self.config.solver_budget;
                let model = match self.query(&[], &budget) {
                    SatResult::Sat(m) => m,
                    SatResult::Unsat => {
                        return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                            fault: RuntimeFault::Unmapped { addr: 0 },
                            at,
                        }))
                    }
                    SatResult::Unknown(reason) => return Err(Stop::Stall(reason, Some(e))),
                };
                let v = model.eval(&self.pool, e);
                // Uniqueness: UNSAT(path ∧ e != v) means e is forced to v.
                // An inconclusive answer is treated as "not unique" — a
                // sound under-approximation that avoids stalling here.
                let vc = self.pool.bv_const(v, 64);
                let ne = self.pool.ne(e, vc);
                let unique = matches!(self.query(&[ne], &budget), SatResult::Unsat);
                if unique || self.config.always_concretize {
                    let eq = self.pool.cmp(CmpKind::Eq, e, vc);
                    self.push_constraint(eq);
                    self.stats.concretized_addrs += 1;
                    return Ok(MemTarget::Concrete(v));
                }
                // Not unique: does it stay within one object? If no object
                // contains the model value the address is ambiguous across
                // objects — concretizing to an arbitrary feasible value
                // could contradict the rest of the trace (the branch
                // outcomes were recorded for the *production* address), so
                // this is a stall: key data value selection will record the
                // address (paper §3.2: the solver is invoked at every
                // symbolic memory access, and timeouts here are exactly the
                // stalls §3.3 resolves).
                let Some(obj) = self.mem.object_containing(v) else {
                    return Err(Stop::Stall(StallReason::AddressAmbiguity, Some(e)));
                };
                let (base, size) = (obj.base, obj.size);
                let lo = self.pool.bv_const(base, 64);
                let hi = self.pool.bv_const(base + size - (width.bytes() - 1), 64);
                let ge = self.pool.cmp(CmpKind::Ule, lo, e);
                let lt = self.pool.cmp(CmpKind::Ult, e, hi);
                let inside = self.pool.and(ge, lt);
                let outside = self.pool.not(inside);
                // If containment cannot be proved (SAT or inconclusive),
                // fall through to concretization — always sound, since any
                // feasible address yields a valid stronger path.
                let contained = matches!(self.query(&[outside], &budget), SatResult::Unsat);
                if contained {
                    self.stats.symbolic_accesses += 1;
                    Ok(MemTarget::Symbolic { base, expr: e })
                } else {
                    // Could not confine the access to one object within the
                    // budget: stall and let selection record the address.
                    Err(Stop::Stall(StallReason::AddressAmbiguity, Some(e)))
                }
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_instr(
        &mut self,
        events: &[TraceEvent],
        cursor: &mut usize,
        at: InstrId,
        instr: &Instr,
    ) -> Result<StepOutcome, Stop> {
        match instr {
            Instr::Const { dst, value } => {
                self.set_reg(*dst, SymValue::Concrete(*value), at);
            }
            Instr::Bin {
                dst,
                op,
                a,
                b,
                width,
            } => {
                let av = self.operand(*a);
                let bv = self.operand(*b);
                let r = self.sym_bin(*op, av, bv, *width, at)?;
                self.set_reg(*dst, r, at);
            }
            Instr::Un { dst, op, a, width } => {
                let av = self.operand(*a);
                let r = self.sym_un(*op, av, *width);
                self.set_reg(*dst, r, at);
            }
            Instr::Cmp {
                dst,
                pred,
                a,
                b,
                width,
            } => {
                let av = self.operand(*a);
                let bv = self.operand(*b);
                let r = self.sym_cmp(*pred, av, bv, *width);
                self.set_reg(*dst, r, at);
            }
            Instr::Cast { dst, a, from } => {
                let av = self.operand(*a);
                let r = match av {
                    SymValue::Concrete(v) => SymValue::Concrete(from.trunc(v)),
                    SymValue::Sym(_) => {
                        let e = av.to_expr(&mut self.pool, from.bits());
                        SymValue::from_expr(&self.pool, e)
                    }
                };
                self.set_reg(*dst, r, at);
            }
            Instr::Load { dst, addr, width } => {
                self.stats.mem_reads += 1;
                let a = self.operand(*addr);
                let target = self.resolve_addr(a, *width, at)?;
                let v = match target {
                    MemTarget::Concrete(ca) => match self.mem.load(&mut self.pool, ca, *width) {
                        Ok(v) => v,
                        Err(fault) => {
                            return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                                fault,
                                at,
                            }))
                        }
                    },
                    MemTarget::Symbolic { base, expr } => {
                        self.mem.load_symbolic(&mut self.pool, base, expr, *width)
                    }
                };
                self.set_reg(*dst, v, at);
            }
            Instr::Store { addr, value, width } => {
                self.stats.mem_writes += 1;
                let a = self.operand(*addr);
                let v = self.operand(*value);
                let target = self.resolve_addr(a, *width, at)?;
                match target {
                    MemTarget::Concrete(ca) => {
                        if let Err(fault) = self.mem.store(&mut self.pool, ca, *width, v) {
                            return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                                fault,
                                at,
                            }));
                        }
                    }
                    MemTarget::Symbolic { base, expr } => {
                        self.mem
                            .store_symbolic(&mut self.pool, base, expr, *width, v);
                    }
                }
            }
            Instr::GlobalAddr { dst, global } => {
                let g = &self.program.globals[global.0 as usize];
                self.set_reg(*dst, SymValue::Concrete(g.addr), at);
            }
            Instr::StackAlloc { dst, size } => {
                let tid = self.threads[self.cur].tid;
                let name = format!("{}.stack{}", self.program.func(at.func).name, at.block.0);
                let a = self.mem.stack_alloc(tid, *size, name);
                self.set_reg(*dst, SymValue::Concrete(a), at);
            }
            Instr::Alloc { dst, size } => {
                let n = match self.operand(*size) {
                    SymValue::Concrete(n) => n,
                    sym => {
                        // Concretize allocation sizes: the production run
                        // allocated a specific amount, and heap layout must
                        // mirror it exactly.
                        let e = sym.to_expr(&mut self.pool, 64);
                        match self.resolve_addr(SymValue::Sym(e), Width::W8, at)? {
                            MemTarget::Concrete(v) => v,
                            MemTarget::Symbolic { expr, .. } => {
                                // Force a concrete size via the model value.
                                let _ = expr;
                                return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                                    wanted: "concrete allocation size",
                                    at,
                                }));
                            }
                        }
                    }
                };
                self.heap_seq += 1;
                let a = self.mem.heap_alloc(n, format!("heap{}", self.heap_seq));
                self.set_reg(*dst, SymValue::Concrete(a), at);
            }
            Instr::Free { addr } => {
                let a = self.operand(*addr);
                let target = self.resolve_addr(a, Width::W8, at)?;
                let MemTarget::Concrete(ca) = target else {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "concrete free address",
                        at,
                    }));
                };
                if let Err(fault) = self.mem.heap_free(ca) {
                    return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                        fault,
                        at,
                    }));
                }
            }
            Instr::Call { dst, func, args } => {
                let ev = self.consume_event(events, cursor, "call", at)?;
                let TraceEvent::Call(target) = ev else {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "call",
                        at,
                    }));
                };
                if *target != func.0 {
                    return Err(Stop::Diverge(TraceDivergence::PayloadMismatch { at }));
                }
                let callee = self.program.func(*func);
                let mut regs = vec![SymValue::Concrete(0); callee.n_regs];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = self.operand(*a);
                }
                let tid = self.threads[self.cur].tid;
                let mark = self.mem.stack_watermark(tid);
                self.threads[self.cur].frames.push(SymFrame {
                    func: *func,
                    block: BlockId(0),
                    ip: 0,
                    regs,
                    ret_dst: *dst,
                    stack_mark: mark,
                });
                return Ok(StepOutcome::Continue); // no ip advance
            }
            Instr::Input { dst, source, width } => {
                let off = self.input_offsets.entry(*source).or_insert(0);
                let offset = *off;
                *off += width.bytes() as usize;
                let var = self.pool.var(format!("in{source}@{offset}"), width.bits());
                self.origins.insert(var, at);
                self.inputs.push(InputRecord {
                    source: *source,
                    offset,
                    width: *width,
                    var,
                    site: at,
                });
                self.set_reg(*dst, SymValue::Sym(var), at);
            }
            Instr::Clock { dst } => {
                // The substrate's clock is deterministic (see DESIGN.md), so
                // symbolic execution mirrors it concretely.
                let v = self.clock;
                self.clock += 1;
                self.set_reg(*dst, SymValue::Concrete(v), at);
            }
            Instr::PtWrite { value } => {
                let ev = self.consume_event(events, cursor, "ptwrite", at)?;
                let TraceEvent::PtWrite(recorded) = *ev else {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "ptwrite",
                        at,
                    }));
                };
                let v = self.operand(*value);
                match v {
                    SymValue::Concrete(c) => {
                        if c != recorded {
                            return Err(Stop::Diverge(TraceDivergence::PayloadMismatch { at }));
                        }
                    }
                    SymValue::Sym(e) => {
                        // Bind the recorded value: constrain and concretize.
                        let bits = self.pool.sort(e).bits();
                        let rc = self.pool.bv_const(recorded, bits);
                        let eq = match self.pool.sort(e) {
                            er_solver::expr::Sort::Bool => {
                                let b = self.pool.bool_to_bv(e, 8);
                                let r8 = self.pool.bv_const(recorded, 8);
                                self.pool.cmp(CmpKind::Eq, b, r8)
                            }
                            _ => self.pool.cmp(CmpKind::Eq, e, rc),
                        };
                        self.push_constraint(eq);
                        self.stats.ptw_bound += 1;
                        if let Operand::Reg(r) = value {
                            self.set_reg(*r, SymValue::Concrete(recorded), at);
                        }
                    }
                }
            }
            Instr::Print { .. } => {}
            Instr::Spawn { dst, func, args } => {
                let callee = self.program.func(*func);
                let mut regs = vec![SymValue::Concrete(0); callee.n_regs];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = self.operand(*a);
                }
                let tid = self.next_tid;
                self.next_tid += 1;
                let mark = self.mem.stack_watermark(tid);
                self.threads.push(SymThread {
                    tid,
                    frames: vec![SymFrame {
                        func: *func,
                        block: BlockId(0),
                        ip: 0,
                        regs,
                        ret_dst: None,
                        stack_mark: mark,
                    }],
                    state: ThreadState::Runnable,
                });
                self.set_reg(*dst, SymValue::Concrete(tid), at);
            }
            Instr::Join { tid } => {
                let target = match self.operand(*tid) {
                    SymValue::Concrete(t) => t,
                    SymValue::Sym(_) => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "concrete thread id",
                            at,
                        }))
                    }
                };
                let done = self
                    .threads
                    .iter()
                    .any(|t| t.tid == target && t.state == ThreadState::Done);
                if !done {
                    self.threads[self.cur].state = ThreadState::BlockedJoin(target);
                    self.advance_ip();
                    return Ok(StepOutcome::Blocked);
                }
            }
            Instr::Lock { lock } => {
                let id = match self.operand(*lock) {
                    SymValue::Concrete(v) => v,
                    SymValue::Sym(_) => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "concrete lock id",
                            at,
                        }))
                    }
                };
                let tid = self.threads[self.cur].tid;
                if self.lock_owner.contains_key(&id) {
                    self.threads[self.cur].state = ThreadState::BlockedLock(id);
                    // ip not advanced: re-attempted after resume.
                    return Ok(StepOutcome::Blocked);
                }
                self.lock_owner.insert(id, tid);
            }
            Instr::Unlock { lock } => {
                let id = match self.operand(*lock) {
                    SymValue::Concrete(v) => v,
                    SymValue::Sym(_) => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "concrete lock id",
                            at,
                        }))
                    }
                };
                self.lock_owner.remove(&id);
                // Unblocked threads are resumed by the trace's PGE packets;
                // just mark them lock-free so the retry succeeds.
                for t in &mut self.threads {
                    if t.state == ThreadState::BlockedLock(id) {
                        t.state = ThreadState::Runnable;
                    }
                }
            }
            Instr::Assert { cond, .. } => {
                // Mid-trace asserts passed in production.
                let c = self.operand(*cond);
                match c {
                    SymValue::Concrete(0) => {
                        return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                            fault: RuntimeFault::AssertFailed {
                                message: "assert failed mid-trace".into(),
                            },
                            at,
                        }))
                    }
                    SymValue::Concrete(_) => {}
                    SymValue::Sym(e) => {
                        let nz = self.pool.nonzero(e);
                        self.push_constraint(nz);
                    }
                }
            }
            Instr::Abort { message } => {
                // Reaching an abort mid-trace means divergence; the failure
                // site case is handled before stepping.
                return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                    fault: RuntimeFault::Abort {
                        message: message.clone(),
                    },
                    at,
                }));
            }
        }
        self.advance_ip();
        Ok(StepOutcome::Continue)
    }

    fn exec_terminator(
        &mut self,
        events: &[TraceEvent],
        cursor: &mut usize,
        at: InstrId,
        func: FuncId,
        block: BlockId,
    ) -> Result<StepOutcome, Stop> {
        let term = self
            .program
            .func(func)
            .block(block)
            .term
            .clone()
            .expect("terminated blocks");
        match term {
            Terminator::Jump(b) => {
                let f = self.threads[self.cur]
                    .frames
                    .last_mut()
                    .expect("live frame");
                f.block = b;
                f.ip = 0;
                Ok(StepOutcome::Continue)
            }
            Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            } => {
                let ev = self.consume_event(events, cursor, "branch", at)?;
                let TraceEvent::Branch(taken) = *ev else {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "branch",
                        at,
                    }));
                };
                let c = self.operand(cond);
                match c {
                    SymValue::Concrete(v) => {
                        if (v != 0) != taken {
                            return Err(Stop::Diverge(TraceDivergence::BranchMismatch { at }));
                        }
                    }
                    SymValue::Sym(e) => {
                        self.stats.forks_shepherded += 1;
                        let nz = self.pool.nonzero(e);
                        let constraint = if taken { nz } else { self.pool.not(nz) };
                        self.push_constraint(constraint);
                    }
                }
                let f = self.threads[self.cur]
                    .frames
                    .last_mut()
                    .expect("live frame");
                f.block = if taken { then_blk } else { else_blk };
                f.ip = 0;
                Ok(StepOutcome::Continue)
            }
            Terminator::Return(v) => {
                let ev = self.consume_event(events, cursor, "ret", at)?;
                if !matches!(ev, TraceEvent::Ret) {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "ret",
                        at,
                    }));
                }
                let value = v
                    .map(|op| self.operand(op))
                    .unwrap_or(SymValue::Concrete(0));
                let tid = self.threads[self.cur].tid;
                let frame = self.threads[self.cur].frames.pop().expect("live frame");
                self.mem.stack_restore(tid, frame.stack_mark);
                if let Some(caller) = self.threads[self.cur].frames.last_mut() {
                    if let Some(dst) = frame.ret_dst {
                        caller.regs[dst.0 as usize] = value;
                    }
                    caller.ip += 1;
                    if let SymValue::Sym(e) = value {
                        self.origins.entry(e).or_insert(at);
                    }
                    Ok(StepOutcome::Continue)
                } else {
                    self.threads[self.cur].state = ThreadState::Done;
                    for t in &mut self.threads {
                        if t.state == ThreadState::BlockedJoin(tid) {
                            t.state = ThreadState::Runnable;
                        }
                    }
                    Ok(StepOutcome::ThreadDone)
                }
            }
        }
    }

    /// Builds the constraint that forces the recorded failure at the
    /// failure site (executed when the trace has been fully consumed).
    fn failure_constraint(&mut self, failure: &Failure) -> Result<Option<ExprRef>, Stop> {
        let blk = self.program.func(failure.at.func).block(failure.at.block);
        let instr = blk.instrs.get(failure.at.index).cloned();
        let constraint = match (&failure.fault, instr) {
            (RuntimeFault::AssertFailed { .. }, Some(Instr::Assert { cond, .. })) => {
                match self.operand(cond) {
                    SymValue::Concrete(0) => None,
                    SymValue::Concrete(_) => {
                        return Err(Stop::Diverge(TraceDivergence::RanPastTraceEnd))
                    }
                    SymValue::Sym(e) => {
                        let nz = self.pool.nonzero(e);
                        Some(self.pool.not(nz))
                    }
                }
            }
            (RuntimeFault::Abort { .. }, Some(Instr::Abort { .. })) => None,
            (RuntimeFault::DivByZero, Some(Instr::Bin { b, .. })) => match self.operand(b) {
                SymValue::Concrete(0) => None,
                SymValue::Concrete(_) => {
                    return Err(Stop::Diverge(TraceDivergence::RanPastTraceEnd))
                }
                sym => {
                    let e = sym.to_expr(&mut self.pool, 64);
                    let zero = self.pool.bv_const(0, 64);
                    Some(self.pool.cmp(CmpKind::Eq, e, zero))
                }
            },
            (fault, Some(Instr::Load { addr, .. })) => {
                let a = self.operand(addr);
                self.memory_fault_constraint(fault, a)
            }
            (fault, Some(Instr::Store { addr, .. })) => {
                let a = self.operand(addr);
                self.memory_fault_constraint(fault, a)
            }
            (fault, Some(Instr::Free { addr })) => {
                let a = self.operand(addr);
                self.memory_fault_constraint(fault, a)
            }
            // Input exhaustion, hangs, deadlocks: reproduced by input shape
            // and schedule, not by value constraints.
            _ => None,
        };
        Ok(constraint)
    }

    fn memory_fault_constraint(&mut self, fault: &RuntimeFault, addr: SymValue) -> Option<ExprRef> {
        let e = match addr {
            SymValue::Concrete(_) => return None, // address forced already
            SymValue::Sym(_) => addr.to_expr(&mut self.pool, 64),
        };
        match fault {
            RuntimeFault::NullDeref { .. } => {
                let guard = self.pool.bv_const(NULL_GUARD, 64);
                Some(self.pool.cmp(CmpKind::Ult, e, guard))
            }
            RuntimeFault::UseAfterFree { .. } | RuntimeFault::InvalidFree { .. } => {
                let mut any = self.pool.bool_const(false);
                let ranges: Vec<(u64, u64)> = self.mem.freed_ranges().to_vec();
                for (base, size) in ranges {
                    let lo = self.pool.bv_const(base, 64);
                    let hi = self.pool.bv_const(base + size, 64);
                    let ge = self.pool.cmp(CmpKind::Ule, lo, e);
                    let lt = self.pool.cmp(CmpKind::Ult, e, hi);
                    let inside = self.pool.and(ge, lt);
                    any = self.pool.or(any, inside);
                }
                Some(any)
            }
            RuntimeFault::Unmapped { .. } => {
                // Outside every object and not in the null guard.
                let mut outside_all = self.pool.bool_const(true);
                let objects: Vec<(u64, u64)> =
                    self.mem.objects().map(|o| (o.base, o.size)).collect();
                for (base, size) in objects {
                    let lo = self.pool.bv_const(base, 64);
                    let hi = self.pool.bv_const(base + size, 64);
                    let ge = self.pool.cmp(CmpKind::Ule, lo, e);
                    let lt = self.pool.cmp(CmpKind::Ult, e, hi);
                    let inside = self.pool.and(ge, lt);
                    let not_inside = self.pool.not(inside);
                    outside_all = self.pool.and(outside_all, not_inside);
                }
                let guard = self.pool.bv_const(NULL_GUARD, 64);
                let not_null = self.pool.cmp(CmpKind::Ule, guard, e);
                Some(self.pool.and(outside_all, not_null))
            }
            _ => None,
        }
    }

    fn sym_bin(
        &mut self,
        op: er_minilang::value::BinOp,
        a: SymValue,
        b: SymValue,
        width: Width,
        at: InstrId,
    ) -> Result<SymValue, Stop> {
        use er_minilang::value::BinOp as MB;
        if let (SymValue::Concrete(x), SymValue::Concrete(y)) = (a, b) {
            return match op.eval(width, x, y) {
                Some(v) => Ok(SymValue::Concrete(v)),
                None => Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                    fault: RuntimeFault::DivByZero,
                    at,
                })),
            };
        }
        let bits = width.bits();
        let ae = a.to_expr(&mut self.pool, bits);
        let be = b.to_expr(&mut self.pool, bits);
        let sop = match op {
            MB::Add => BvOp::Add,
            MB::Sub => BvOp::Sub,
            MB::Mul => BvOp::Mul,
            MB::UDiv => BvOp::UDiv,
            MB::URem => BvOp::URem,
            MB::And => BvOp::And,
            MB::Or => BvOp::Or,
            MB::Xor => BvOp::Xor,
            MB::Shl => BvOp::Shl,
            MB::LShr => BvOp::LShr,
            MB::AShr => BvOp::AShr,
        };
        if matches!(op, MB::UDiv | MB::URem) {
            // The production run did not fault here, so the divisor is
            // nonzero along this path.
            let zero = self.pool.bv_const(0, bits);
            let nz = self.pool.ne(be, zero);
            self.push_constraint(nz);
        }
        let e = self.pool.bin(sop, ae, be);
        Ok(SymValue::from_expr(&self.pool, e))
    }

    fn sym_un(&mut self, op: er_minilang::value::UnOp, a: SymValue, width: Width) -> SymValue {
        use er_minilang::value::UnOp as MU;
        if let SymValue::Concrete(x) = a {
            return SymValue::Concrete(op.eval(width, x));
        }
        let bits = width.bits();
        match op {
            MU::Neg => {
                let ae = a.to_expr(&mut self.pool, bits);
                let zero = self.pool.bv_const(0, bits);
                let e = self.pool.bin(BvOp::Sub, zero, ae);
                SymValue::from_expr(&self.pool, e)
            }
            MU::Not => {
                let ae = a.to_expr(&mut self.pool, bits);
                let ones = self.pool.bv_const(u64::MAX, bits);
                let e = self.pool.bin(BvOp::Xor, ae, ones);
                SymValue::from_expr(&self.pool, e)
            }
            MU::LNot => {
                let ae = a.to_expr(&mut self.pool, bits);
                let nz = self.pool.nonzero(ae);
                let not = self.pool.not(nz);
                let e = self.pool.bool_to_bv(not, bits);
                SymValue::from_expr(&self.pool, e)
            }
        }
    }

    fn sym_cmp(
        &mut self,
        pred: er_minilang::value::CmpOp,
        a: SymValue,
        b: SymValue,
        width: Width,
    ) -> SymValue {
        use er_minilang::value::CmpOp as MC;
        if let (SymValue::Concrete(x), SymValue::Concrete(y)) = (a, b) {
            return SymValue::Concrete(u64::from(pred.eval(width, x, y)));
        }
        let bits = width.bits();
        let ae = a.to_expr(&mut self.pool, bits);
        let be = b.to_expr(&mut self.pool, bits);
        let e = match pred {
            MC::Eq => self.pool.cmp(CmpKind::Eq, ae, be),
            MC::Ne => self.pool.ne(ae, be),
            MC::Ult => self.pool.cmp(CmpKind::Ult, ae, be),
            MC::Ule => self.pool.cmp(CmpKind::Ule, ae, be),
            MC::Slt => self.pool.cmp(CmpKind::Slt, ae, be),
            MC::Sle => self.pool.cmp(CmpKind::Sle, ae, be),
        };
        SymValue::from_expr(&self.pool, e)
    }
}

enum MemTarget {
    Concrete(u64),
    Symbolic { base: u64, expr: ExprRef },
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;
    use er_minilang::env::Env;
    use er_minilang::interp::{Machine, RunOutcome};
    use er_pt::sink::{PtConfig, PtSink};

    /// Runs `src` concretely with the given inputs, returning the decoded
    /// trace and the failure (if any).
    fn record(
        src: &str,
        inputs: &[(u32, Vec<u8>)],
    ) -> (er_minilang::ir::Program, Vec<TraceEvent>, Option<Failure>) {
        let program = compile(src).unwrap();
        let mut env = Env::new();
        for (s, b) in inputs {
            env.push_input(*s, b);
        }
        let report = Machine::with_sink(&program, env, PtSink::new(PtConfig::default())).run();
        let failure = match report.outcome {
            RunOutcome::Failure(f) => Some(f),
            RunOutcome::Completed => None,
        };
        let events = report.sink.finish().decode().unwrap().events;
        (program, events, failure)
    }

    /// Solves path + failure constraint and extracts input bytes.
    fn generate_inputs(result: &mut SymRunResult) -> Vec<(u32, Vec<u8>)> {
        let mut constraints = result.path.clone();
        if let Some(fc) = result.failure_constraint {
            constraints.push(fc);
        }
        let mut solver = IncrementalSolver::new();
        let SatResult::Sat(model) =
            solver.check(&mut result.pool, &constraints, &Budget::default())
        else {
            panic!("path must be satisfiable");
        };
        let mut streams: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut recs = result.inputs.clone();
        recs.sort_by_key(|r| (r.source, r.offset));
        for rec in recs {
            let v = model.eval(&result.pool, rec.var);
            let stream = streams.entry(rec.source).or_default();
            assert_eq!(stream.len(), rec.offset);
            stream.extend_from_slice(&v.to_le_bytes()[..rec.width.bytes() as usize]);
        }
        streams.into_iter().collect()
    }

    fn rerun(program: &er_minilang::ir::Program, inputs: &[(u32, Vec<u8>)]) -> RunOutcome {
        let mut env = Env::new();
        for (s, b) in inputs {
            env.push_input(*s, b);
        }
        Machine::new(program, env).run().outcome
    }

    #[test]
    fn reconstructs_branchy_input_failure() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                let b: u32 = input_u32(0);
                if a + b == 77 {
                    if a > 30 {
                        abort("boom");
                    }
                }
                print(a);
            }
        "#;
        let (program, events, failure) = record(
            src,
            &[(0, [40u32.to_le_bytes(), 37u32.to_le_bytes()].concat())],
        );
        let failure = failure.expect("production run fails");
        let machine = SymMachine::new(&program, SymConfig::default());
        let mut result = machine.run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        assert_eq!(result.inputs.len(), 2);
        let gen = generate_inputs(&mut result);
        // The generated input may differ from (40, 37) but must re-crash
        // identically.
        let outcome = rerun(&program, &gen);
        let RunOutcome::Failure(f2) = outcome else {
            panic!("generated input must reproduce the failure, got {outcome:?}")
        };
        assert!(f2.same_failure(&failure));
    }

    #[test]
    fn reconstructs_assert_failure() {
        let src = r#"
            fn check(v: u32) {
                assert(v % 7 != 3, "bad residue");
            }
            fn main() {
                let a: u32 = input_u32(0);
                check(a * 2);
            }
        "#;
        let (program, events, failure) = record(src, &[(0, 5u32.to_le_bytes().to_vec())]);
        let failure = failure.expect("10 % 7 == 3 crashes");
        let mut result =
            SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        assert!(result.failure_constraint.is_some());
        let gen = generate_inputs(&mut result);
        let RunOutcome::Failure(f2) = rerun(&program, &gen) else {
            panic!("must re-crash")
        };
        assert!(f2.same_failure(&failure));
    }

    #[test]
    fn follows_loops_with_symbolic_bounds() {
        let src = r#"
            fn main() {
                let n: u32 = input_u32(0);
                let sum: u32 = 0;
                for i: u32 = 0; i < n % 16; i = i + 1 {
                    sum = sum + i;
                }
                if sum == 6 { abort("sum hit"); }
            }
        "#;
        let (program, events, failure) = record(src, &[(0, 4u32.to_le_bytes().to_vec())]);
        let failure = failure.expect("0+1+2+3 == 6");
        let mut result =
            SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        let gen = generate_inputs(&mut result);
        let RunOutcome::Failure(f2) = rerun(&program, &gen) else {
            panic!("must re-crash")
        };
        assert!(f2.same_failure(&failure));
    }

    #[test]
    fn symbolic_array_access_reconstructs() {
        // A small version of the paper's Fig. 3 pattern.
        let src = r#"
            global V: [u32; 16];
            fn main() {
                let a: u32 = input_u32(0);
                let c: u32 = input_u32(0);
                let x: u32 = a % 16;
                if c < 16 {
                    V[x] = 1;
                    if V[c] == 0 {
                        V[c] = 9;
                    }
                    if V[x] == 9 { abort("aliased"); }
                }
                print(x);
            }
        "#;
        // a%16 == c makes V[x] == 9: x == c, the write V[c]=9 did not run...
        // choose a=3, c=3: V[3]=1; V[3]==0 false; V[3]==9 false -> no crash.
        // choose a=3, c=5: V[3]=1, V[5]=9, V[3]==9 false -> no crash.
        // The crash needs V[x]==9, i.e. x==c and V[c]==0 taken: but V[x]=1
        // wrote 1 at x==c, so V[c]==0 is false. Unreachable; use c==x with
        // a second pass instead: simply verify completion on a non-crashing
        // trace is handled by the liveness path below. Here pick a crashing
        // variant:
        let _ = src;
        let src2 = r#"
            global V: [u32; 16];
            fn main() {
                let a: u32 = input_u32(0);
                let c: u32 = input_u32(0);
                let x: u32 = a % 16;
                if c < 16 {
                    V[x] = 1;
                    if V[c] == 1 { abort("aliased"); }
                }
                print(x);
            }
        "#;
        let (program, events, failure) = record(
            src2,
            &[(0, [7u32.to_le_bytes(), 7u32.to_le_bytes()].concat())],
        );
        let failure = failure.expect("x == c crashes");
        let mut result =
            SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        assert!(result.stats.symbolic_accesses > 0 || result.stats.concretized_addrs > 0);
        let gen = generate_inputs(&mut result);
        let RunOutcome::Failure(f2) = rerun(&program, &gen) else {
            panic!("must re-crash")
        };
        assert!(f2.same_failure(&failure));
    }

    #[test]
    fn stalls_on_large_symbolic_object_with_small_budget() {
        // Masked indexing keeps the accesses symbolic (containment is
        // provable), so the branch condition embeds array reads; the
        // post-branch store's address query must then reason about the
        // whole 32 KiB object and stalls under a small budget.
        let src = r#"
            global BIG: [u64; 4096];
            fn main() {
                let a: u64 = input_u64(0);
                let i: u64 = a & 4095;
                BIG[i] = 5;
                let j: u64 = input_u64(0) & 4095;
                if BIG[j] == 5 {
                    BIG[i] = 7;
                    abort("hit");
                }
            }
        "#;
        let (program, events, failure) = record(
            src,
            &[(0, [9u64.to_le_bytes(), 9u64.to_le_bytes()].concat())],
        );
        let failure = failure.expect("i == j crashes");
        let config = SymConfig {
            solver_budget: Budget::small(),
            max_steps: 10_000_000,
            always_concretize: false,
            ..SymConfig::default()
        };
        let result = SymMachine::new(&program, config).run(&events, Some(&failure));
        assert!(
            matches!(result.status, ShepherdStatus::Stalled { .. }),
            "expected stall, got {:?}",
            result.status
        );
        assert!(result.longest_chain > 0 || result.stats.solver_queries > 0);
    }

    #[test]
    fn ptwrite_binds_recorded_values() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                let x: u32 = a * 3;
                ptwrite(x);
                if x == 21 { abort("x21"); }
            }
        "#;
        let (program, events, failure) = record(src, &[(0, 7u32.to_le_bytes().to_vec())]);
        let failure = failure.expect("21 crashes");
        assert!(events.iter().any(|e| matches!(e, TraceEvent::PtWrite(21))));
        let mut result =
            SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        assert_eq!(result.stats.ptw_bound, 1);
        let gen = generate_inputs(&mut result);
        let RunOutcome::Failure(f2) = rerun(&program, &gen) else {
            panic!("must re-crash")
        };
        assert!(f2.same_failure(&failure));
        // With x bound to 21, a is forced to exactly 7.
        assert_eq!(gen[0].1, 7u32.to_le_bytes().to_vec());
    }

    #[test]
    fn detects_divergence_on_corrupted_trace() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                if a < 10 { abort("low"); }
                print(a);
            }
        "#;
        let (program, mut events, failure) = record(src, &[(0, 3u32.to_le_bytes().to_vec())]);
        let failure = failure.expect("crashes");
        // Flip the branch outcome.
        for ev in &mut events {
            if let TraceEvent::Branch(b) = ev {
                *b = !*b;
            }
        }
        let result = SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert!(matches!(result.status, ShepherdStatus::Diverged(_)));
    }

    #[test]
    fn multithreaded_trace_replays() {
        let src = r#"
            global flag: u32;
            fn worker(v: u32) {
                lock(1);
                flag = v;
                unlock(1);
            }
            fn main() {
                let a: u32 = input_u32(0);
                let t: u64 = spawn worker(a);
                join(t);
                if flag == 42 { abort("42"); }
            }
        "#;
        let (program, events, failure) = record(src, &[(0, 42u32.to_le_bytes().to_vec())]);
        let failure = failure.expect("flag 42 crashes");
        let mut result =
            SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed, "MT trace follows");
        let gen = generate_inputs(&mut result);
        let RunOutcome::Failure(f2) = rerun(&program, &gen) else {
            panic!("must re-crash")
        };
        assert!(f2.same_failure(&failure));
    }

    #[test]
    fn completed_run_trace_follows_to_exit() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                if a < 10 { print(1); } else { print(2); }
            }
        "#;
        let (program, events, failure) = record(src, &[(0, 3u32.to_le_bytes().to_vec())]);
        assert!(failure.is_none());
        let result = SymMachine::new(&program, SymConfig::default()).run(&events, None);
        assert_eq!(result.status, ShepherdStatus::Completed);
    }

    #[test]
    fn div_by_zero_failure_constraint() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                let b: u32 = input_u32(0);
                print(a / (b % 7));
            }
        "#;
        let (program, events, failure) = record(
            src,
            &[(0, [9u32.to_le_bytes(), 14u32.to_le_bytes()].concat())],
        );
        let failure = failure.expect("14 % 7 == 0 divides by zero");
        let mut result =
            SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        assert!(result.failure_constraint.is_some(), "divisor == 0 required");
        let gen = generate_inputs(&mut result);
        let RunOutcome::Failure(f2) = rerun(&program, &gen) else {
            panic!("must re-crash")
        };
        assert!(f2.same_failure(&failure));
    }

    #[test]
    fn use_after_free_constraint_via_symbolic_pointer() {
        // The freed pointer flows through a symbolic table slot; the
        // failure constraint must confine the access to the freed range.
        let src = r#"
            global SLOTS: [u64; 32];
            fn main() {
                let k: u64 = input_u64(0) & 31;
                let p: u64 = alloc(16);
                SLOTS[k] = p;
                free(p);
                let q: u64 = SLOTS[input_u64(0) & 31];
                store64(q, 5);
                print(q);
            }
        "#;
        let (program, events, failure) = record(
            src,
            &[(0, [3u64.to_le_bytes(), 3u64.to_le_bytes()].concat())],
        );
        let failure = failure.expect("aliased slot yields freed pointer");
        assert!(matches!(
            failure.fault,
            er_minilang::error::RuntimeFault::UseAfterFree { .. }
        ));
        let mut result =
            SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        let gen = generate_inputs(&mut result);
        let RunOutcome::Failure(f2) = rerun(&program, &gen) else {
            panic!("must re-crash")
        };
        assert!(f2.same_failure(&failure));
    }

    #[test]
    fn null_deref_constraint_on_symbolic_pointer_value() {
        let src = r#"
            global PTRS: [u64; 8];
            fn main() {
                PTRS[3] = alloc(8);
                let i: u64 = input_u64(0) & 7;
                let p: u64 = PTRS[i];
                let v: u64 = load64(p);
                print(v);
            }
        "#;
        let (program, events, failure) = record(src, &[(0, 5u64.to_le_bytes().to_vec())]);
        let failure = failure.expect("slot 5 is null");
        let mut result =
            SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        let gen = generate_inputs(&mut result);
        let RunOutcome::Failure(f2) = rerun(&program, &gen) else {
            panic!("must re-crash")
        };
        assert!(f2.same_failure(&failure));
        // The generated index must avoid the one initialized slot.
        let i = u64::from_le_bytes(gen[0].1[..8].try_into().unwrap()) & 7;
        assert_ne!(i, 3, "slot 3 holds a live pointer");
    }

    #[test]
    fn origins_and_site_counts_recorded() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                let x: u32 = a + 1;
                if x == 5 { abort("five"); }
            }
        "#;
        let (program, events, failure) = record(src, &[(0, 4u32.to_le_bytes().to_vec())]);
        let failure = failure.expect("crashes");
        let result = SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        assert_eq!(result.status, ShepherdStatus::Completed);
        // The input var and the sum both have origins.
        assert!(result.origins.len() >= 2);
        assert!(!result.site_counts.is_empty());
        let input_site = result.inputs[0].site;
        assert_eq!(result.site_counts.get(&input_site), Some(&1));
    }
}
