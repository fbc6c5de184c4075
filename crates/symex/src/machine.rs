//! The shepherded symbolic machine: executes IR along a recorded trace.
//!
//! Where the concrete interpreter consults a scheduler and real inputs,
//! this machine consults the decoded Intel-PT-style event stream: branch
//! outcomes come from TNT bits, thread switches from PGE packets, and
//! recorded data values from PTW packets. Inputs become fresh symbolic
//! variables; every consumed event is validated so that divergence between
//! the trace and the execution is caught, not silently mis-replayed.

use crate::mem::{ObjectName, SymMemory};
use crate::value::SymValue;
use er_minilang::code::{Alu, AluKind, CallSite, Code, Op, Pc};
use er_minilang::error::{Failure, FailureKind, RuntimeFault};
use er_minilang::ir::*;
use er_minilang::mem::NULL_GUARD;
use er_minilang::value::Width;
use er_pt::packet::TraceEvent;
use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef};
use er_solver::hash::FxHashMap;
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, SatResult, StallReason};
use std::collections::HashMap;
use std::sync::Arc;

/// First definition site of each symbolic expression.
pub type Origins = FxHashMap<ExprRef, InstrId>;

/// Dynamic execution count per value-defining site of the program a run
/// executed. The step loop keeps one dense counter per pc; this read view
/// reports only value-defining sites that ran, keyed by [`InstrId`].
#[derive(Debug, Clone)]
pub struct SiteCounts {
    code: Arc<Code>,
    counts: Vec<u64>,
}

impl SiteCounts {
    /// The count of `site`, if it defines a value and ran.
    pub fn get(&self, site: &InstrId) -> Option<&u64> {
        let pc = self.code.pc_of(*site)?;
        let n = &self.counts[pc as usize];
        (*n > 0 && self.code.defines_value(pc)).then_some(n)
    }

    /// Every value-defining site that ran with its count, in site order.
    pub fn iter(&self) -> impl Iterator<Item = (InstrId, u64)> + '_ {
        live_counts(&self.code, &self.counts).map(|(pc, n)| (self.code.id_of(pc), n))
    }

    /// The counts of [`SiteCounts::iter`].
    pub fn values(&self) -> impl Iterator<Item = &u64> + '_ {
        live_counts(&self.code, &self.counts).map(|(pc, _)| &self.counts[pc as usize])
    }

    /// How many value-defining sites ran.
    pub fn len(&self) -> usize {
        live_counts(&self.code, &self.counts).count()
    }

    /// Whether no value-defining site ran.
    pub fn is_empty(&self) -> bool {
        live_counts(&self.code, &self.counts).next().is_none()
    }
}

/// The (pc, count) pairs of `counts` that the read views expose: the step
/// loop counts every executed pc, but only value-defining sites are sites.
fn live_counts<'a>(code: &'a Code, counts: &'a [u64]) -> impl Iterator<Item = (Pc, u64)> + 'a {
    counts
        .iter()
        .enumerate()
        .map(|(pc, &n)| (pc as Pc, n))
        .filter(|&(pc, n)| n > 0 && code.defines_value(pc))
}

/// Configuration for a shepherded run.
#[derive(Debug, Clone, Copy)]
pub struct SymConfig {
    /// Budget for each solver query (address resolution); exhausting it is
    /// a stall, the analogue of the paper's 30 s timeout.
    pub solver_budget: Budget,
    /// Safety net on the instructions one run executes.
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

/// Work counters for one shepherded run. They are per-run accounting, not
/// machine state: a run resumed from a [`MachineState`] counts only the
/// work it does after the snapshot.
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
    pub origins: Origins,
    /// Dynamic execution count per value-defining site.
    pub site_counts: SiteCounts,
    /// Longest symbolic write chain (paper complexity source 1).
    pub longest_chain: u64,
    /// The expression whose solver query stalled, if any — the seed for the
    /// stall-site fallback in key data value selection.
    pub stall_subject: Option<ExprRef>,
    /// This run's work counters.
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

/// The symbolic machine's complete state. A running [`SymMachine`] owns
/// one; a resumable snapshot is a copy of it taken at an event-cursor
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
/// Frame positions and site counts are pcs into the flat code of the
/// program the snapshot ran, which the state keeps, so they stand for
/// [`InstrId`] coordinates without it. Every build of a program shares
/// those coordinates, whatever it records, so origins and inputs hold
/// across builds as they are; when the next occurrence runs under a
/// *different recording set*, only the pcs move to the new code, see
/// [`MachineState::retarget`].
#[derive(Debug, Clone)]
pub struct MachineState {
    cursor: usize,
    /// The code `threads`' pcs and `site_counts` index.
    code: Arc<Code>,
    pool: ExprPool,
    path: Vec<ExprRef>,
    mem: SymMemory,
    threads: Vec<SymThread>,
    cur: usize,
    lock_owner: HashMap<u64, u64>,
    next_tid: u64,
    inputs: Vec<InputRecord>,
    input_offsets: HashMap<u32, usize>,
    origins: Origins,
    /// Executions per pc of `code`.
    site_counts: Vec<u64>,
    clock: u64,
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

    /// The site the running thread is paused at (its function's entry
    /// once it has returned).
    pub fn position(&self) -> InstrId {
        self.code.id_of(self.pc())
    }

    /// Whether the running thread is paused on the recording slot of
    /// [`position`](Self::position): past the instruction, before the
    /// `ptwrite` of its value.
    pub fn at_recording(&self) -> bool {
        self.code.is_recording(self.pc())
    }

    /// The running thread's pc (its function's entry once it has
    /// returned).
    #[inline]
    fn pc(&self) -> Pc {
        match self.threads[self.cur].frames.last() {
            Some(f) => f.pc,
            None => self.code.entry(),
        }
    }

    /// Moves frame positions and site counts to the pcs of the same
    /// [`InstrId`]s in `new_program`, another build of the snapshot's
    /// program that the resumed run will execute. A frame parked on a
    /// recording slot moves to the new build's recording slot of that
    /// instruction; `None` — discard the snapshot — if the new build does
    /// not record it.
    pub fn retarget(mut self, new_program: &Program) -> Option<MachineState> {
        let (old, new) = (&*self.code, new_program.code());
        let pc_map = |pc: Pc| {
            let at = new.pc_of(old.id_of(pc))?;
            if old.is_recording(pc) {
                // A recorded instruction is never its block's last slot.
                return new.is_recording(at + 1).then_some(at + 1);
            }
            Some(at)
        };
        for t in &mut self.threads {
            for fr in &mut t.frames {
                fr.pc = pc_map(fr.pc)?;
            }
        }
        let mut site_counts = vec![0; new.ops().len()];
        for (pc, n) in live_counts(old, &self.site_counts) {
            site_counts[pc_map(pc)? as usize] = n;
        }
        self.site_counts = site_counts;
        self.code = Arc::clone(new);
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
    pc: Pc,
    regs: Vec<SymValue>,
    ret_dst: Option<Reg>,
    stack_mark: u64,
}

impl SymFrame {
    /// Reads `op` against this frame's registers.
    #[inline]
    fn get(&self, op: Operand) -> SymValue {
        read(&self.regs, op)
    }
}

#[derive(Debug, Clone)]
struct SymThread {
    tid: u64,
    frames: Vec<SymFrame>,
    state: ThreadState,
}

/// How the step loop proceeds after one step.
enum StepFlow {
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

/// The shepherded symbolic executor: one [`MachineState`] driven along a
/// trace, plus the run's accounting and its checkpoint ring.
#[derive(Debug)]
pub struct SymMachine<'p> {
    program: &'p Program,
    code: &'p Code,
    config: SymConfig,
    /// The machine itself; `state.cursor` is where the run starts.
    state: MachineState,
    /// This run's work only: a resumed run starts from zero.
    stats: SymStats,
    checkpoints: Vec<MachineState>,
    checkpoint_interval: u64,
    next_checkpoint_at: usize,
}

impl<'p> SymMachine<'p> {
    /// A machine ready to follow a trace of `program`.
    pub fn new(program: &'p Program, config: SymConfig) -> Self {
        let code = program.code();
        let mem = SymMemory::new(program);
        let main = SymThread {
            tid: 0,
            frames: vec![SymFrame {
                pc: code.entry(),
                regs: vec![SymValue::Concrete(0); program.func(program.entry()).n_regs],
                ret_dst: None,
                stack_mark: mem.stack_watermark(0),
            }],
            state: ThreadState::Runnable,
        };
        let state = MachineState {
            cursor: 0,
            code: Arc::clone(code),
            pool: ExprPool::new(),
            path: Vec::new(),
            mem,
            threads: vec![main],
            cur: 0,
            lock_owner: HashMap::new(),
            next_tid: 1,
            inputs: Vec::new(),
            input_offsets: HashMap::new(),
            origins: Origins::default(),
            site_counts: vec![0; code.ops().len()],
            clock: 0,
            heap_seq: 0,
            inc: IncrementalSolver::new(),
        };
        Self::with_state(program, config, state)
    }

    /// A machine that picks up from `state`, skipping the events before
    /// `state.cursor()`. The caller must guarantee the trace passed to
    /// [`SymMachine::run`] agrees with the snapshot's trace on that prefix
    /// (a snapshot of another build is retargeted at `program`'s code).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken on a program with different code
    /// and a paused frame's site does not exist in `program`, or is a
    /// recording slot `program` lacks.
    pub fn resume(program: &'p Program, config: SymConfig, state: MachineState) -> Self {
        // A snapshot of another build of the program re-resolves its sites
        // by `InstrId` against this program's code.
        let state = if Arc::ptr_eq(&state.code, program.code()) {
            state
        } else {
            state
                .retarget(program)
                .expect("snapshot sites exist in the resumed program")
        };
        let mut machine = Self::with_state(program, config, state);
        // The resume state itself is the run's first checkpoint: without it,
        // a resumed run that starts past the shared prefix would snapshot
        // nothing inside it, and the *next* occurrence would have to
        // re-execute the whole prefix again.
        let seed = machine.snapshot(machine.state.cursor);
        machine.checkpoints.push(seed);
        machine
    }

    fn with_state(program: &'p Program, config: SymConfig, state: MachineState) -> Self {
        SymMachine {
            program,
            code: program.code(),
            config,
            state,
            stats: SymStats::default(),
            checkpoints: Vec::new(),
            checkpoint_interval: config.checkpoint_every,
            next_checkpoint_at: usize::MAX,
        }
    }

    /// Follows `events` to the end; `failure` is the production failure the
    /// trace leads to (`None` for a trace of a completed run). A machine
    /// built by [`SymMachine::resume`] starts at its snapshot's cursor.
    pub fn run(mut self, events: &[TraceEvent], failure: Option<&Failure>) -> SymRunResult {
        self.next_checkpoint_at = if self.checkpoint_interval > 0 {
            self.state.cursor + self.checkpoint_interval as usize
        } else {
            usize::MAX
        };
        let status = self.run_loop(events, failure);
        let mut stall_subject = None;
        let (status, failure_constraint) = match status {
            Ok(fc) => (ShepherdStatus::Completed, fc),
            Err(Stop::Stall(reason, subject)) => {
                stall_subject = subject;
                (
                    ShepherdStatus::Stalled {
                        reason,
                        at: self.state.position(),
                    },
                    None,
                )
            }
            Err(Stop::Diverge(d)) => (ShepherdStatus::Diverged(d), None),
        };
        let longest_chain = self.state.mem.longest_write_chain(&self.state.pool);
        if er_telemetry::enabled() {
            // One batched update per shepherded run; the step loop carries
            // only plain field increments.
            er_telemetry::counter!("symex.steps").add(self.stats.steps);
            er_telemetry::counter!("symex.solver_queries").add(self.stats.solver_queries);
            er_telemetry::counter!("symex.forks_shepherded").add(self.stats.forks_shepherded);
            er_telemetry::counter!("symex.mem_reads").add(self.stats.mem_reads);
            er_telemetry::counter!("symex.mem_writes").add(self.stats.mem_writes);
            er_telemetry::counter!("symex.ptw_bound").add(self.stats.ptw_bound);
            er_telemetry::histogram!("symex.write_chain_len").record(longest_chain);
        }
        let MachineState {
            code,
            pool,
            path,
            inputs,
            origins,
            site_counts,
            inc,
            ..
        } = self.state;
        SymRunResult {
            status,
            pool,
            path,
            failure_constraint,
            inputs,
            origins,
            site_counts: SiteCounts {
                code,
                counts: site_counts,
            },
            longest_chain,
            stall_subject,
            stats: self.stats,
            checkpoints: self.checkpoints,
            solver: inc,
        }
    }

    /// Captures a resumable snapshot at event position `cursor`.
    fn snapshot(&self, cursor: usize) -> MachineState {
        let mut state = self.state.clone();
        state.cursor = cursor;
        state
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
            let r = self.state.inc.check_assuming(
                &mut self.state.pool,
                &self.state.path,
                assumptions,
                budget,
            );
            (r, self.state.inc.last_stats().work_units())
        } else {
            let mut fresh = IncrementalSolver::new();
            let r =
                fresh.check_assuming(&mut self.state.pool, &self.state.path, assumptions, budget);
            (r, fresh.last_stats().work_units())
        };
        self.stats.work_units += work;
        r
    }

    fn switch_to(&mut self, tid: u64) -> Result<(), Stop> {
        let Some(idx) = self.state.threads.iter().position(|t| t.tid == tid) else {
            return Err(Stop::Diverge(TraceDivergence::UnknownThread { tid }));
        };
        self.state.cur = idx;
        // The production scheduler only resumes runnable (or just-woken)
        // threads; trust it.
        if self.state.threads[idx].state != ThreadState::Done {
            self.state.threads[idx].state = ThreadState::Runnable;
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
    ) -> Result<Option<ExprRef>, Stop> {
        let mut cursor = self.state.cursor;
        let failure_pc = failure.and_then(|f| self.code.pc_of(f.at));
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
                        if *t == self.state.threads[self.state.cur].tid
                            && self.state.threads[self.state.cur].state
                                == ThreadState::Runnable =>
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

            let pc = self.state.pc();
            let events_left = cursor < events.len();

            // End-of-trace handling: once events run out, keep executing
            // straight-line code until the failure site (or conclude for
            // liveness failures, whose traces end mid-flight).
            if !events_left {
                if let Some(f) = failure {
                    if matches!(f.fault.kind(), FailureKind::Liveness) {
                        return Ok(None);
                    }
                    if Some(pc) == failure_pc && self.state.threads[self.state.cur].tid == f.tid {
                        return self.failure_constraint(f);
                    }
                } else if self
                    .state
                    .threads
                    .iter()
                    .all(|t| t.state == ThreadState::Done)
                {
                    return Ok(None);
                }
            }

            if !matches!(
                self.state.threads[self.state.cur].state,
                ThreadState::Runnable
            ) {
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
                            at: self.code.id_of(pc),
                        }))
                    }
                    None => {
                        if failure.is_none()
                            && self
                                .state
                                .threads
                                .iter()
                                .all(|t| t.state == ThreadState::Done)
                        {
                            return Ok(None);
                        }
                        return Err(Stop::Diverge(TraceDivergence::RanPastTraceEnd));
                    }
                }
            }

            // While events remain, an event-free concrete stretch runs in
            // one slice; the op it stops at takes the step path, after its
            // own prelude.
            if events_left && self.run_slice(events, &mut cursor) {
                continue;
            }
            match self.step(events, &mut cursor, pc)? {
                StepFlow::SwitchDue => match events.get(cursor) {
                    Some(TraceEvent::ThreadResume(tid)) => {
                        let tid = *tid;
                        cursor += 1;
                        self.switch_to(tid)?;
                    }
                    _ => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "thread resume",
                            at: self.code.id_of(pc),
                        }))
                    }
                },
                StepFlow::Continue | StepFlow::Blocked | StepFlow::ThreadDone => {}
            }
        }
    }

    fn step(
        &mut self,
        events: &[TraceEvent],
        cursor: &mut usize,
        pc: Pc,
    ) -> Result<StepFlow, Stop> {
        // Borrow from the code, not from `self`: dispatch copies nothing.
        let code = self.code;
        let op = &code.ops()[pc as usize];
        // Ops that consume events yield to a pending thread switch first.
        if matches!(
            op,
            Op::Call { .. } | Op::PtWrite { .. } | Op::Branch { .. } | Op::Return { .. }
        ) && self.switch_pending(events, cursor)
        {
            return Ok(StepFlow::SwitchDue);
        }
        // Every executed pc is counted; `SiteCounts` reports the
        // value-defining ones.
        self.state.site_counts[pc as usize] += 1;
        self.exec(events, cursor, code.id_of(pc), op)
    }

    /// Runs the current frame from its pc through an event-free concrete
    /// stretch of the trace, one dispatch per op, and reports whether it
    /// ran any op.
    ///
    /// A slice runs `Const`, `Mov`, `Jump`, every ALU form whose operands
    /// are concrete and whose result is defined, and a concrete `Branch`
    /// whose TNT bit is the next event, which it consumes. It stops before
    /// any other op, such as one with a symbolic operand, a memory access,
    /// a call or a `ptwrite`, and leaves it to the step path, which reports
    /// a mismatch exactly as it would have. After a branch it also stops
    /// where the next step's prelude would act: on a checkpoint boundary,
    /// at the end of the events, or on a timestamp, thread resume or gap.
    ///
    /// The step prelude billed the first op. Each further op counts in
    /// `stats.steps` and `site_counts` as a step would, and a slice runs
    /// no more ops than the step budget and the cancel token's headroom
    /// leave, billing the token once, so both trip on the same step as
    /// they would op by op.
    #[allow(clippy::too_many_lines)]
    fn run_slice(&mut self, events: &[TraceEvent], cursor: &mut usize) -> bool {
        let extra = (self.config.max_steps - self.stats.steps).min(er_solver::cancel::headroom());
        let ops = self.code.ops();
        let checkpoint_at = self.next_checkpoint_at;
        let state = &mut self.state;
        let counts = &mut state.site_counts[..];
        let frame = state.threads[state.cur]
            .frames
            .last_mut()
            .expect("live frame");
        let regs = &mut frame.regs[..];
        let mut pc = frame.pc as usize;
        let mut ran: u64 = 0;
        loop {
            let (dst, v) = match ops[pc] {
                Op::Const { dst, value } => (dst, Some(value)),
                Op::Mov { dst, src } => (dst, regs[src.0 as usize].as_concrete()),
                Op::AddRR { dst, a, b } => (dst, rr(regs, a, b, u64::wrapping_add)),
                Op::AddRI { dst, a, imm } => (dst, ri(regs, a, imm, u64::wrapping_add)),
                Op::SubRR { dst, a, b } => (dst, rr(regs, a, b, u64::wrapping_sub)),
                Op::SubRI { dst, a, imm } => (dst, ri(regs, a, imm, u64::wrapping_sub)),
                Op::MulRR { dst, a, b } => (dst, rr(regs, a, b, u64::wrapping_mul)),
                Op::MulRI { dst, a, imm } => (dst, ri(regs, a, imm, u64::wrapping_mul)),
                Op::AndRR { dst, a, b } => (dst, rr(regs, a, b, |x, y| x & y)),
                Op::AndRI { dst, a, imm } => (dst, ri(regs, a, imm, |x, y| x & y)),
                Op::OrRR { dst, a, b } => (dst, rr(regs, a, b, |x, y| x | y)),
                Op::OrRI { dst, a, imm } => (dst, ri(regs, a, imm, |x, y| x | y)),
                Op::XorRR { dst, a, b } => (dst, rr(regs, a, b, |x, y| x ^ y)),
                Op::XorRI { dst, a, imm } => (dst, ri(regs, a, imm, |x, y| x ^ y)),
                // `wrapping_*` shifts take the amount modulo 64, the IR's
                // shift semantics at 64 bits.
                Op::ShlRR { dst, a, b } => (dst, rr(regs, a, b, shl)),
                Op::ShlRI { dst, a, imm } => (dst, ri(regs, a, imm, shl)),
                Op::LShrRR { dst, a, b } => (dst, rr(regs, a, b, lshr)),
                Op::LShrRI { dst, a, imm } => (dst, ri(regs, a, imm, lshr)),
                Op::AShrRR { dst, a, b } => (dst, rr(regs, a, b, ashr)),
                Op::AShrRI { dst, a, imm } => (dst, ri(regs, a, imm, ashr)),
                Op::EqRR { dst, a, b } => (dst, rr(regs, a, b, |x, y| u64::from(x == y))),
                Op::EqRI { dst, a, imm } => (dst, ri(regs, a, imm, |x, y| u64::from(x == y))),
                Op::NeRR { dst, a, b } => (dst, rr(regs, a, b, |x, y| u64::from(x != y))),
                Op::NeRI { dst, a, imm } => (dst, ri(regs, a, imm, |x, y| u64::from(x != y))),
                Op::UltRR { dst, a, b } => (dst, rr(regs, a, b, |x, y| u64::from(x < y))),
                Op::UltRI { dst, a, imm } => (dst, ri(regs, a, imm, |x, y| u64::from(x < y))),
                Op::UleRR { dst, a, b } => (dst, rr(regs, a, b, |x, y| u64::from(x <= y))),
                Op::UleRI { dst, a, imm } => (dst, ri(regs, a, imm, |x, y| u64::from(x <= y))),
                Op::SltRR { dst, a, b } => (dst, rr(regs, a, b, slt)),
                Op::SltRI { dst, a, imm } => (dst, ri(regs, a, imm, slt)),
                Op::SleRR { dst, a, b } => (dst, rr(regs, a, b, sle)),
                Op::SleRI { dst, a, imm } => (dst, ri(regs, a, imm, sle)),
                // Division by zero yields `None`: the step path faults.
                Op::Bin {
                    dst,
                    op,
                    a,
                    b,
                    width,
                } => (
                    dst,
                    words(regs, a, b).and_then(|(x, y)| op.eval(width, x, y)),
                ),
                Op::Cmp {
                    dst,
                    pred,
                    a,
                    b,
                    width,
                } => (
                    dst,
                    words(regs, a, b).map(|(x, y)| u64::from(pred.eval(width, x, y))),
                ),
                Op::Jump { to } => {
                    counts[pc] += 1;
                    ran += 1;
                    pc = to as usize;
                    if ran > extra {
                        break;
                    }
                    continue;
                }
                Op::Branch {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    let Some(c) = read(regs, cond).as_concrete() else {
                        break;
                    };
                    let Some(&TraceEvent::Branch(taken)) = events.get(*cursor) else {
                        break;
                    };
                    if (c != 0) != taken {
                        break;
                    }
                    *cursor += 1;
                    counts[pc] += 1;
                    ran += 1;
                    pc = if taken { then_pc } else { else_pc } as usize;
                    let prelude_acts = *cursor >= checkpoint_at
                        || matches!(
                            events.get(*cursor),
                            None | Some(
                                TraceEvent::Timestamp(_)
                                    | TraceEvent::ThreadResume(_)
                                    | TraceEvent::Gap
                            )
                        );
                    if prelude_acts || ran > extra {
                        break;
                    }
                    continue;
                }
                _ => break,
            };
            let Some(v) = v else {
                break;
            };
            regs[dst.0 as usize] = SymValue::Concrete(v);
            counts[pc] += 1;
            ran += 1;
            pc += 1;
            if ran > extra {
                break;
            }
        }
        frame.pc = pc as Pc;
        if ran > 1 {
            self.stats.steps += ran - 1;
            let tripped = er_solver::cancel::tick(ran - 1);
            debug_assert!(!tripped, "a slice stays within the cancel headroom");
        }
        ran > 0
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
        self.state.threads[self.state.cur]
            .frames
            .last()
            .expect("live frame")
            .get(op)
    }

    fn set_reg(&mut self, r: Reg, v: SymValue, site: InstrId) {
        if let SymValue::Sym(e) = v {
            self.state.origins.entry(e).or_insert(site);
        }
        self.state.threads[self.state.cur]
            .frames
            .last_mut()
            .expect("live frame")
            .regs[r.0 as usize] = v;
    }

    fn frame_mut(&mut self) -> &mut SymFrame {
        self.state.threads[self.state.cur]
            .frames
            .last_mut()
            .expect("live frame")
    }

    fn push_constraint(&mut self, c: ExprRef) {
        if self.state.pool.as_const(c) != Some(1) {
            self.state.path.push(c);
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
                let e = addr.to_expr(&mut self.state.pool, 64);
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
                let v = model.eval(&self.state.pool, e);
                // Uniqueness: UNSAT(path ∧ e != v) means e is forced to v.
                // An inconclusive answer is treated as "not unique" — a
                // sound under-approximation that avoids stalling here.
                let vc = self.state.pool.bv_const(v, 64);
                let ne = self.state.pool.ne(e, vc);
                let unique = matches!(self.query(&[ne], &budget), SatResult::Unsat);
                if unique || self.config.always_concretize {
                    let eq = self.state.pool.cmp(CmpKind::Eq, e, vc);
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
                let Some(obj) = self.state.mem.object_containing(v) else {
                    return Err(Stop::Stall(StallReason::AddressAmbiguity, Some(e)));
                };
                let (base, size) = (obj.base, obj.size);
                let lo = self.state.pool.bv_const(base, 64);
                let hi = self
                    .state
                    .pool
                    .bv_const(base + size - (width.bytes() - 1), 64);
                let ge = self.state.pool.cmp(CmpKind::Ule, lo, e);
                let lt = self.state.pool.cmp(CmpKind::Ult, e, hi);
                let inside = self.state.pool.and(ge, lt);
                let outside = self.state.pool.not(inside);
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
    fn exec(
        &mut self,
        events: &[TraceEvent],
        cursor: &mut usize,
        at: InstrId,
        op: &'p Op,
    ) -> Result<StepFlow, Stop> {
        match *op {
            Op::Const { dst, value } => {
                self.set_reg(dst, SymValue::Concrete(value), at);
            }
            Op::Un { dst, op, a, width } => {
                let av = self.operand(a);
                let r = self.sym_un(op, av, width);
                self.set_reg(dst, r, at);
            }
            Op::Cast { dst, a, from } => {
                let av = self.operand(a);
                let r = match av {
                    SymValue::Concrete(v) => SymValue::Concrete(from.trunc(v)),
                    SymValue::Sym(_) => {
                        let e = av.to_expr(&mut self.state.pool, from.bits());
                        SymValue::from_expr(&self.state.pool, e)
                    }
                };
                self.set_reg(dst, r, at);
            }
            Op::Load { dst, addr, width } => {
                self.stats.mem_reads += 1;
                let a = self.operand(addr);
                let target = self.resolve_addr(a, width, at)?;
                let v = match target {
                    MemTarget::Concrete(ca) => {
                        match self.state.mem.load(&mut self.state.pool, ca, width) {
                            Ok(v) => v,
                            Err(fault) => {
                                return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                                    fault,
                                    at,
                                }))
                            }
                        }
                    }
                    MemTarget::Symbolic { base, expr } => {
                        self.state
                            .mem
                            .load_symbolic(&mut self.state.pool, base, expr, width)
                    }
                };
                self.set_reg(dst, v, at);
            }
            Op::Store { addr, value, width } => {
                self.stats.mem_writes += 1;
                let a = self.operand(addr);
                let v = self.operand(value);
                let target = self.resolve_addr(a, width, at)?;
                match target {
                    MemTarget::Concrete(ca) => {
                        if let Err(fault) = self.state.mem.store(&mut self.state.pool, ca, width, v)
                        {
                            return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                                fault,
                                at,
                            }));
                        }
                    }
                    MemTarget::Symbolic { base, expr } => {
                        self.state
                            .mem
                            .store_symbolic(&mut self.state.pool, base, expr, width, v);
                    }
                }
            }
            Op::StackAlloc { dst, size } => {
                let tid = self.state.threads[self.state.cur].tid;
                let name = ObjectName::Stack {
                    func: at.func,
                    block: at.block,
                };
                let a = self.state.mem.stack_alloc(tid, size, name);
                self.set_reg(dst, SymValue::Concrete(a), at);
            }
            Op::Alloc { dst, size } => {
                let n = match self.operand(size) {
                    SymValue::Concrete(n) => n,
                    sym => {
                        // Concretize allocation sizes: the production run
                        // allocated a specific amount, and heap layout must
                        // mirror it exactly.
                        let e = sym.to_expr(&mut self.state.pool, 64);
                        match self.resolve_addr(SymValue::Sym(e), Width::W8, at)? {
                            MemTarget::Concrete(v) => v,
                            MemTarget::Symbolic { .. } => {
                                return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                                    wanted: "concrete allocation size",
                                    at,
                                }));
                            }
                        }
                    }
                };
                self.state.heap_seq += 1;
                let a = self
                    .state
                    .mem
                    .heap_alloc(n, ObjectName::Heap(self.state.heap_seq));
                self.set_reg(dst, SymValue::Concrete(a), at);
            }
            Op::Free { addr } => {
                let a = self.operand(addr);
                let target = self.resolve_addr(a, Width::W8, at)?;
                let MemTarget::Concrete(ca) = target else {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "concrete free address",
                        at,
                    }));
                };
                if let Err(fault) = self.state.mem.heap_free(ca) {
                    return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                        fault,
                        at,
                    }));
                }
            }
            Op::Call { site } => {
                let site = self.code.call_site(site);
                let ev = self.consume_event(events, cursor, "call", at)?;
                let TraceEvent::Call(target) = ev else {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "call",
                        at,
                    }));
                };
                if *target != site.func.0 {
                    return Err(Stop::Diverge(TraceDivergence::PayloadMismatch { at }));
                }
                let regs = self.callee_regs(site);
                let tid = self.state.threads[self.state.cur].tid;
                let mark = self.state.mem.stack_watermark(tid);
                self.state.threads[self.state.cur].frames.push(SymFrame {
                    pc: site.entry,
                    regs,
                    ret_dst: site.dst,
                    stack_mark: mark,
                });
                return Ok(StepFlow::Continue); // the caller's pc stays on the Call
            }
            Op::Input { dst, source, width } => {
                let off = self.state.input_offsets.entry(source).or_insert(0);
                let offset = *off;
                *off += width.bytes() as usize;
                let var = self
                    .state
                    .pool
                    .var(format!("in{source}@{offset}"), width.bits());
                self.state.origins.insert(var, at);
                self.state.inputs.push(InputRecord {
                    source,
                    offset,
                    width,
                    var,
                    site: at,
                });
                self.set_reg(dst, SymValue::Sym(var), at);
            }
            Op::Clock { dst } => {
                // The substrate's clock is deterministic (see DESIGN.md), so
                // symbolic execution mirrors it concretely.
                let v = self.state.clock;
                self.state.clock += 1;
                self.set_reg(dst, SymValue::Concrete(v), at);
            }
            Op::PtWrite { value } => {
                let ev = self.consume_event(events, cursor, "ptwrite", at)?;
                let TraceEvent::PtWrite(recorded) = *ev else {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "ptwrite",
                        at,
                    }));
                };
                match self.operand(value) {
                    SymValue::Concrete(c) => {
                        if c != recorded {
                            return Err(Stop::Diverge(TraceDivergence::PayloadMismatch { at }));
                        }
                    }
                    SymValue::Sym(e) => {
                        // Bind the recorded value: constrain and concretize.
                        let bits = self.state.pool.sort(e).bits();
                        let rc = self.state.pool.bv_const(recorded, bits);
                        let eq = match self.state.pool.sort(e) {
                            er_solver::expr::Sort::Bool => {
                                let b = self.state.pool.bool_to_bv(e, 8);
                                let r8 = self.state.pool.bv_const(recorded, 8);
                                self.state.pool.cmp(CmpKind::Eq, b, r8)
                            }
                            _ => self.state.pool.cmp(CmpKind::Eq, e, rc),
                        };
                        self.push_constraint(eq);
                        self.stats.ptw_bound += 1;
                        if let Operand::Reg(r) = value {
                            self.set_reg(r, SymValue::Concrete(recorded), at);
                        }
                    }
                }
            }
            Op::Print { .. } => {}
            Op::Spawn { site } => {
                let site = self.code.call_site(site);
                let regs = self.callee_regs(site);
                let tid = self.state.next_tid;
                self.state.next_tid += 1;
                let mark = self.state.mem.stack_watermark(tid);
                self.state.threads.push(SymThread {
                    tid,
                    frames: vec![SymFrame {
                        pc: site.entry,
                        regs,
                        ret_dst: None,
                        stack_mark: mark,
                    }],
                    state: ThreadState::Runnable,
                });
                let dst = site.dst.expect("spawn sites define the thread id");
                self.set_reg(dst, SymValue::Concrete(tid), at);
            }
            Op::Join { tid } => {
                let target = match self.operand(tid) {
                    SymValue::Concrete(t) => t,
                    SymValue::Sym(_) => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "concrete thread id",
                            at,
                        }))
                    }
                };
                let done = self
                    .state
                    .threads
                    .iter()
                    .any(|t| t.tid == target && t.state == ThreadState::Done);
                if !done {
                    self.state.threads[self.state.cur].state = ThreadState::BlockedJoin(target);
                    self.frame_mut().pc += 1;
                    return Ok(StepFlow::Blocked);
                }
            }
            Op::Lock { lock } => {
                let id = match self.operand(lock) {
                    SymValue::Concrete(v) => v,
                    SymValue::Sym(_) => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "concrete lock id",
                            at,
                        }))
                    }
                };
                let tid = self.state.threads[self.state.cur].tid;
                if self.state.lock_owner.contains_key(&id) {
                    self.state.threads[self.state.cur].state = ThreadState::BlockedLock(id);
                    // The pc is not advanced: re-attempted after resume.
                    return Ok(StepFlow::Blocked);
                }
                self.state.lock_owner.insert(id, tid);
            }
            Op::Unlock { lock } => {
                let id = match self.operand(lock) {
                    SymValue::Concrete(v) => v,
                    SymValue::Sym(_) => {
                        return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                            wanted: "concrete lock id",
                            at,
                        }))
                    }
                };
                self.state.lock_owner.remove(&id);
                // Unblocked threads are resumed by the trace's PGE packets;
                // just mark them lock-free so the retry succeeds.
                for t in &mut self.state.threads {
                    if t.state == ThreadState::BlockedLock(id) {
                        t.state = ThreadState::Runnable;
                    }
                }
            }
            Op::Assert { cond, .. } => {
                // Mid-trace asserts passed in production.
                match self.operand(cond) {
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
                        let nz = self.state.pool.nonzero(e);
                        self.push_constraint(nz);
                    }
                }
            }
            Op::Abort { message } => {
                // Reaching an abort mid-trace means divergence; the failure
                // site case is handled before stepping.
                return Err(Stop::Diverge(TraceDivergence::UnexpectedFault {
                    fault: RuntimeFault::Abort {
                        message: self.code.message(message).to_string(),
                    },
                    at,
                }));
            }
            Op::Jump { to } => {
                self.frame_mut().pc = to;
                return Ok(StepFlow::Continue);
            }
            Op::Branch {
                cond,
                then_pc,
                else_pc,
            } => {
                let ev = self.consume_event(events, cursor, "branch", at)?;
                let TraceEvent::Branch(taken) = *ev else {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "branch",
                        at,
                    }));
                };
                match self.operand(cond) {
                    SymValue::Concrete(v) => {
                        if (v != 0) != taken {
                            return Err(Stop::Diverge(TraceDivergence::BranchMismatch { at }));
                        }
                    }
                    SymValue::Sym(e) => {
                        self.stats.forks_shepherded += 1;
                        let nz = self.state.pool.nonzero(e);
                        let constraint = if taken { nz } else { self.state.pool.not(nz) };
                        self.push_constraint(constraint);
                    }
                }
                self.frame_mut().pc = if taken { then_pc } else { else_pc };
                return Ok(StepFlow::Continue);
            }
            Op::Return { value } => return self.ret(events, cursor, at, value),
            // Every remaining op is an ALU form, specialized or generic; the
            // symbolic executor evaluates its generic meaning.
            _ => {
                let Some(Alu {
                    dst,
                    kind,
                    a,
                    b,
                    width,
                }) = op.alu()
                else {
                    unreachable!("{op:?} has its own arm");
                };
                let (av, bv) = (self.operand(a), self.operand(b));
                let r = match kind {
                    AluKind::Bin(op) => self.sym_bin(op, av, bv, width, at)?,
                    AluKind::Cmp(pred) => self.sym_cmp(pred, av, bv, width),
                };
                self.set_reg(dst, r, at);
            }
        }
        self.frame_mut().pc += 1;
        Ok(StepFlow::Continue)
    }

    /// A fresh register file for a call or spawn at `site`, with its
    /// arguments in the parameters.
    fn callee_regs(&self, site: &CallSite) -> Vec<SymValue> {
        let mut regs = vec![SymValue::Concrete(0); site.n_regs];
        for (i, a) in site.args.iter().enumerate() {
            regs[i] = self.operand(*a);
        }
        regs
    }

    fn ret(
        &mut self,
        events: &[TraceEvent],
        cursor: &mut usize,
        at: InstrId,
        value: Option<Operand>,
    ) -> Result<StepFlow, Stop> {
        let ev = self.consume_event(events, cursor, "ret", at)?;
        if !matches!(ev, TraceEvent::Ret) {
            return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                wanted: "ret",
                at,
            }));
        }
        let value = value
            .map(|op| self.operand(op))
            .unwrap_or(SymValue::Concrete(0));
        let tid = self.state.threads[self.state.cur].tid;
        let frame = self.state.threads[self.state.cur]
            .frames
            .pop()
            .expect("live frame");
        self.state.mem.stack_restore(tid, frame.stack_mark);
        if let Some(caller) = self.state.threads[self.state.cur].frames.last_mut() {
            if let Some(dst) = frame.ret_dst {
                caller.regs[dst.0 as usize] = value;
            }
            caller.pc += 1;
            if let SymValue::Sym(e) = value {
                self.state.origins.entry(e).or_insert(at);
            }
            Ok(StepFlow::Continue)
        } else {
            self.state.threads[self.state.cur].state = ThreadState::Done;
            for t in &mut self.state.threads {
                if t.state == ThreadState::BlockedJoin(tid) {
                    t.state = ThreadState::Runnable;
                }
            }
            Ok(StepFlow::ThreadDone)
        }
    }

    /// Builds the constraint that forces the recorded failure at the
    /// failure site (executed when the trace has been fully consumed).
    fn failure_constraint(&mut self, failure: &Failure) -> Result<Option<ExprRef>, Stop> {
        let blk = self.program.func(failure.at.func).block(failure.at.block);
        let instr = blk.instrs.get(failure.at.index);
        let constraint = match (&failure.fault, instr) {
            (RuntimeFault::AssertFailed { .. }, Some(Instr::Assert { cond, .. })) => {
                match self.operand(*cond) {
                    SymValue::Concrete(0) => None,
                    SymValue::Concrete(_) => {
                        return Err(Stop::Diverge(TraceDivergence::RanPastTraceEnd))
                    }
                    SymValue::Sym(e) => {
                        let nz = self.state.pool.nonzero(e);
                        Some(self.state.pool.not(nz))
                    }
                }
            }
            (RuntimeFault::Abort { .. }, Some(Instr::Abort { .. })) => None,
            (RuntimeFault::DivByZero, Some(Instr::Bin { b, .. })) => match self.operand(*b) {
                SymValue::Concrete(0) => None,
                SymValue::Concrete(_) => {
                    return Err(Stop::Diverge(TraceDivergence::RanPastTraceEnd))
                }
                sym => {
                    let e = sym.to_expr(&mut self.state.pool, 64);
                    let zero = self.state.pool.bv_const(0, 64);
                    Some(self.state.pool.cmp(CmpKind::Eq, e, zero))
                }
            },
            (fault, Some(Instr::Load { addr, .. })) => {
                let a = self.operand(*addr);
                self.memory_fault_constraint(fault, a)
            }
            (fault, Some(Instr::Store { addr, .. })) => {
                let a = self.operand(*addr);
                self.memory_fault_constraint(fault, a)
            }
            (fault, Some(Instr::Free { addr })) => {
                let a = self.operand(*addr);
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
            SymValue::Sym(_) => addr.to_expr(&mut self.state.pool, 64),
        };
        match fault {
            RuntimeFault::NullDeref { .. } => {
                let guard = self.state.pool.bv_const(NULL_GUARD, 64);
                Some(self.state.pool.cmp(CmpKind::Ult, e, guard))
            }
            RuntimeFault::UseAfterFree { .. } | RuntimeFault::InvalidFree { .. } => {
                let mut any = self.state.pool.bool_const(false);
                let ranges: Vec<(u64, u64)> = self.state.mem.freed_ranges().to_vec();
                for (base, size) in ranges {
                    let lo = self.state.pool.bv_const(base, 64);
                    let hi = self.state.pool.bv_const(base + size, 64);
                    let ge = self.state.pool.cmp(CmpKind::Ule, lo, e);
                    let lt = self.state.pool.cmp(CmpKind::Ult, e, hi);
                    let inside = self.state.pool.and(ge, lt);
                    any = self.state.pool.or(any, inside);
                }
                Some(any)
            }
            RuntimeFault::Unmapped { .. } => {
                // Outside every object and not in the null guard.
                let mut outside_all = self.state.pool.bool_const(true);
                let objects: Vec<(u64, u64)> =
                    self.state.mem.objects().map(|o| (o.base, o.size)).collect();
                for (base, size) in objects {
                    let lo = self.state.pool.bv_const(base, 64);
                    let hi = self.state.pool.bv_const(base + size, 64);
                    let ge = self.state.pool.cmp(CmpKind::Ule, lo, e);
                    let lt = self.state.pool.cmp(CmpKind::Ult, e, hi);
                    let inside = self.state.pool.and(ge, lt);
                    let not_inside = self.state.pool.not(inside);
                    outside_all = self.state.pool.and(outside_all, not_inside);
                }
                let guard = self.state.pool.bv_const(NULL_GUARD, 64);
                let not_null = self.state.pool.cmp(CmpKind::Ule, guard, e);
                Some(self.state.pool.and(outside_all, not_null))
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
        let ae = a.to_expr(&mut self.state.pool, bits);
        let be = b.to_expr(&mut self.state.pool, bits);
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
            let zero = self.state.pool.bv_const(0, bits);
            let nz = self.state.pool.ne(be, zero);
            self.push_constraint(nz);
        }
        let e = self.state.pool.bin(sop, ae, be);
        Ok(SymValue::from_expr(&self.state.pool, e))
    }

    fn sym_un(&mut self, op: er_minilang::value::UnOp, a: SymValue, width: Width) -> SymValue {
        use er_minilang::value::UnOp as MU;
        if let SymValue::Concrete(x) = a {
            return SymValue::Concrete(op.eval(width, x));
        }
        let bits = width.bits();
        match op {
            MU::Neg => {
                let ae = a.to_expr(&mut self.state.pool, bits);
                let zero = self.state.pool.bv_const(0, bits);
                let e = self.state.pool.bin(BvOp::Sub, zero, ae);
                SymValue::from_expr(&self.state.pool, e)
            }
            MU::Not => {
                let ae = a.to_expr(&mut self.state.pool, bits);
                let ones = self.state.pool.bv_const(u64::MAX, bits);
                let e = self.state.pool.bin(BvOp::Xor, ae, ones);
                SymValue::from_expr(&self.state.pool, e)
            }
            MU::LNot => {
                let ae = a.to_expr(&mut self.state.pool, bits);
                let nz = self.state.pool.nonzero(ae);
                let not = self.state.pool.not(nz);
                let e = self.state.pool.bool_to_bv(not, bits);
                SymValue::from_expr(&self.state.pool, e)
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
        let ae = a.to_expr(&mut self.state.pool, bits);
        let be = b.to_expr(&mut self.state.pool, bits);
        let e = match pred {
            MC::Eq => self.state.pool.cmp(CmpKind::Eq, ae, be),
            MC::Ne => self.state.pool.ne(ae, be),
            MC::Ult => self.state.pool.cmp(CmpKind::Ult, ae, be),
            MC::Ule => self.state.pool.cmp(CmpKind::Ule, ae, be),
            MC::Slt => self.state.pool.cmp(CmpKind::Slt, ae, be),
            MC::Sle => self.state.pool.cmp(CmpKind::Sle, ae, be),
        };
        SymValue::from_expr(&self.state.pool, e)
    }
}

enum MemTarget {
    Concrete(u64),
    Symbolic { base: u64, expr: ExprRef },
}

/// Reads `op` against a register file.
#[inline(always)]
fn read(regs: &[SymValue], op: Operand) -> SymValue {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => SymValue::Concrete(v),
    }
}

/// Both operands' words, if both are concrete.
#[inline(always)]
fn words(regs: &[SymValue], a: Operand, b: Operand) -> Option<(u64, u64)> {
    Some((read(regs, a).as_concrete()?, read(regs, b).as_concrete()?))
}

/// `f` of two registers, if both are concrete.
#[inline(always)]
fn rr(regs: &[SymValue], a: Reg, b: Reg, f: impl FnOnce(u64, u64) -> u64) -> Option<u64> {
    match (regs[a.0 as usize], regs[b.0 as usize]) {
        (SymValue::Concrete(x), SymValue::Concrete(y)) => Some(f(x, y)),
        _ => None,
    }
}

/// `f` of a register and an immediate, if the register is concrete.
#[inline(always)]
fn ri(regs: &[SymValue], a: Reg, imm: u64, f: impl FnOnce(u64, u64) -> u64) -> Option<u64> {
    regs[a.0 as usize].as_concrete().map(|x| f(x, imm))
}

fn shl(x: u64, y: u64) -> u64 {
    x.wrapping_shl(y as u32)
}

fn lshr(x: u64, y: u64) -> u64 {
    x.wrapping_shr(y as u32)
}

fn ashr(x: u64, y: u64) -> u64 {
    (x as i64).wrapping_shr(y as u32) as u64
}

fn slt(x: u64, y: u64) -> u64 {
    u64::from((x as i64) < (y as i64))
}

fn sle(x: u64, y: u64) -> u64 {
    u64::from((x as i64) <= (y as i64))
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
    fn address_wrapping_the_address_space_diverges_instead_of_panicking() {
        // A[i] loads 8 bytes at 2^64 - 8, whose end wraps to 0. Production
        // faults there; following its trace as if it had completed makes
        // the machine execute that load, which must be a typed divergence.
        let (program, events, failure) = record(
            "global A: [u64; 4];\nfn main() { let i: u64 = 0x1FFFFFFFFDFFFFFF; print(A[i]); }",
            &[],
        );
        let addr = 0xFFFF_FFFF_FFFF_FFF8;
        assert_eq!(
            failure.map(|f| f.fault),
            Some(RuntimeFault::Unmapped { addr })
        );
        let r = SymMachine::new(&program, SymConfig::default()).run(&events, None);
        let ShepherdStatus::Diverged(TraceDivergence::UnexpectedFault { fault, .. }) = r.status
        else {
            panic!("expected a typed divergence, got {:?}", r.status)
        };
        assert_eq!(fault, RuntimeFault::Unmapped { addr });
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

    /// A long single-threaded concrete loop whose stores, loads and
    /// branches end slices at varying points.
    const CONCRETE_LOOP: &str = r#"
        global G: [u64; 8];
        fn main() {
            let h: u64 = 14695981039346656037;
            for i: u64 = 0; i < 200; i = i + 1 {
                h = (h ^ i) * 1099511628211;
                if i % 5 == 2 { G[i % 8] = h; }
                h = h + G[(i + 3) % 8];
            }
            print(h);
        }
    "#;

    /// Largest budget the exact-trip sweeps try.
    const TRIP_SWEEP: u64 = 700;

    /// Runs [`CONCRETE_LOOP`] once per budget `k` in `1..=TRIP_SWEEP`
    /// through `run(k)`, and checks each run executed exactly `k` ops, one
    /// more than the run for `k - 1`.
    fn sweep_trips(run: impl Fn(&Program, &[TraceEvent], u64) -> SymRunResult) {
        let (program, events, failure) = record(CONCRETE_LOOP, &[]);
        assert!(failure.is_none());
        let full = SymMachine::new(&program, SymConfig::default()).run(&events, None);
        assert_eq!(full.status, ShepherdStatus::Completed);
        assert!(full.site_counts.counts.iter().sum::<u64>() > TRIP_SWEEP);
        let mut prev = vec![0; program.code().ops().len()];
        for k in 1..=TRIP_SWEEP {
            let r = run(&program, &events, k);
            assert_eq!(r.stats.steps, k + 1, "k = {k}: {:?}", r.status);
            let counts = r.site_counts.counts;
            assert_eq!(counts.iter().sum::<u64>(), k, "k = {k}");
            // One more op than the previous budget, and the same ones
            // before it: no op of a slice is skipped or counted twice.
            let grown: Vec<_> = (0..counts.len())
                .filter(|&pc| counts[pc] != prev[pc])
                .collect();
            assert_eq!(grown.len(), 1, "k = {k}");
            assert_eq!(counts[grown[0]], prev[grown[0]] + 1, "k = {k}");
            prev = counts;
        }
    }

    #[test]
    fn step_budget_trips_on_the_same_step_inside_and_across_slices() {
        sweep_trips(|program, events, k| {
            let config = SymConfig {
                max_steps: k,
                ..SymConfig::default()
            };
            let r = SymMachine::new(program, config).run(events, None);
            assert_eq!(
                r.status,
                ShepherdStatus::Diverged(TraceDivergence::StepBudget),
                "k = {k}"
            );
            r
        });
    }

    #[test]
    fn cancel_token_trips_on_the_same_step_inside_and_across_slices() {
        use er_solver::cancel::{self, Phase, PhaseBudgets};
        sweep_trips(|program, events, k| {
            let _armed = cancel::arm(PhaseBudgets {
                shepherd: k,
                ..PhaseBudgets::unlimited()
            });
            cancel::begin_phase(Phase::Shepherd);
            let r = SymMachine::new(program, SymConfig::default()).run(events, None);
            assert!(
                matches!(
                    r.status,
                    ShepherdStatus::Stalled {
                        reason: StallReason::Cancelled,
                        ..
                    }
                ),
                "k = {k}: {:?}",
                r.status
            );
            r
        });
    }

    #[test]
    fn slices_stop_for_checkpoints_on_schedule() {
        let (program, events, _) = record(CONCRETE_LOOP, &[]);
        let every = 100;
        let config = SymConfig {
            checkpoint_every: every,
            ..SymConfig::default()
        };
        let r = SymMachine::new(&program, config).run(&events, None);
        assert_eq!(r.status, ShepherdStatus::Completed);
        assert!(
            (3..SymMachine::MAX_CHECKPOINTS).contains(&r.checkpoints.len()),
            "{} checkpoints, no thinning",
            r.checkpoints.len()
        );
        // Each checkpoint lands on its scheduled cursor, or past it only by
        // events the step prelude skips: no slice runs through one.
        let mut due = every as usize;
        for c in &r.checkpoints {
            let at = c.cursor();
            assert!(at >= due, "checkpoint at {at}, due at {due}");
            assert!(
                events[due..at]
                    .iter()
                    .all(|e| matches!(e, TraceEvent::Timestamp(_) | TraceEvent::ThreadResume(_))),
                "checkpoint at {at}, due at {due}: {:?}",
                &events[due..at]
            );
            due = at + every as usize;
        }
    }

    #[test]
    fn flipped_tnt_bit_of_a_concrete_branch_diverges_at_that_branch() {
        let (program, events, _) = record(CONCRETE_LOOP, &[]);
        let branches: Vec<usize> = (0..events.len())
            .filter(|&i| matches!(events[i], TraceEvent::Branch(_)))
            .collect();
        for &i in [branches[0], branches[branches.len() / 2]].iter() {
            let mut flipped = events.clone();
            let TraceEvent::Branch(taken) = flipped[i] else {
                unreachable!()
            };
            flipped[i] = TraceEvent::Branch(!taken);
            let r = SymMachine::new(&program, SymConfig::default()).run(&flipped, None);
            let ShepherdStatus::Diverged(TraceDivergence::BranchMismatch { at }) = r.status else {
                panic!("event {i}: {:?}", r.status)
            };
            assert_eq!(at.index, InstrId::TERMINATOR, "event {i}");
            let unflipped = SymConfig {
                max_steps: r.stats.steps - 1,
                ..SymConfig::default()
            };
            // The step path counts the branch, then reports it: a run
            // stopped just before the branch counted every other op.
            let before = SymMachine::new(&program, unflipped).run(&events, None);
            let mut counts = before.site_counts.counts;
            counts[program.code().pc_of(at).expect("a branch of the program") as usize] += 1;
            assert_eq!(counts, r.site_counts.counts, "event {i}");
        }
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
