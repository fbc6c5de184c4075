//! The shepherded symbolic machine: executes IR along a recorded trace.
//!
//! Where the concrete interpreter consults a scheduler and real inputs,
//! this machine consults the decoded Intel-PT-style event stream: branch
//! outcomes come from TNT bits, thread switches from PGE packets, and
//! recorded data values from PTW packets. Inputs become fresh symbolic
//! variables; every consumed event is validated so that divergence between
//! the trace and the execution is caught, not silently mis-replayed.

use crate::mem::{ObjectName, OverlayCounts, SymMemory};
use crate::value::SymValue;
use er_minilang::code::{CallSite, Code, Op, Pc};
use er_minilang::error::{Failure, FailureKind, RuntimeFault};
use er_minilang::interp::WarmStart;
use er_minilang::ir::*;
use er_minilang::mem::NULL_GUARD;
use er_minilang::value::Width;
use er_minilang::word::WordFlow;
use er_pt::packet::TraceEvent;
use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef};
use er_solver::hash::FxHashMap;
use er_solver::inc::IncrementalSolver;
use er_solver::interval::unsigned_bound;
use er_solver::solve::{Budget, Model, SatResult, StallReason};
use er_solver::witness::find_witness;
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
}

impl Default for SymConfig {
    fn default() -> Self {
        SymConfig {
            solver_budget: Budget::default(),
            max_steps: 500_000_000,
            always_concretize: false,
            incremental_solver: true,
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
/// machine state: a run started from a [`MachineState`] counts only the
/// work it does after that state.
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
    /// Symbolic addresses shown not unique by a concrete witness instead
    /// of a solver query.
    pub addr_witnessed: u64,
    /// Symbolic addresses shown to stay inside their object by an unsigned
    /// bound instead of a solver query.
    pub addr_bounded: u64,
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
    /// Ops run on machine words, in all-concrete frames: the part of
    /// `steps` that ran at interpreter speed.
    pub word_ops: u64,
    /// Symbolic values stored whole at concrete addresses (one overlay
    /// entry each, [`crate::mem`]).
    pub overlay_stores: u64,
    /// Byte expressions built from those stores by loads and promotions.
    pub overlay_bytes_built: u64,
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
    /// The run's solver engine, its committed prefix a prefix of `path`.
    /// The final input solve continues from it, so only constraints added
    /// after the run's last query (and the failure constraint) are lowered.
    /// Every run starts its own engine, a warm-started run included. In the
    /// non-incremental baseline mode no query touches it, so the final
    /// solve starts fresh.
    pub solver: IncrementalSolver,
}

/// The symbolic machine's complete state at an event cursor. A running
/// [`SymMachine`] owns one; a run starts from the entry
/// ([`SymMachine::new`]) or from its binary's symbolic warm start
/// ([`MachineState::from_warm`], [`SymMachine::resume`]).
///
/// The state holds no solver engine: the path condition is the whole of
/// what the queries so far decided, and a run that starts from a state
/// lowers it into an engine of its own.
///
/// Frame positions and site counts are pcs into the flat code of the
/// program the state runs, which the state keeps, so they stand for
/// [`InstrId`] coordinates without it.
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
}

impl MachineState {
    /// The state a shepherd of `program` starts in: the entry, before any
    /// event.
    fn cold(program: &Program) -> MachineState {
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
        MachineState {
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
        }
    }

    /// The state a shepherd of `program` reaches at `warm`'s pause, built
    /// without executing the prefix: a state at cursor
    /// [`WarmStart::events`], valid against every trace that
    /// [starts with the prefix's events](WarmStart::prefix_matches) and
    /// goes on past them. (A cold shepherd of a trace that ends there
    /// may conclude before the ops that lead up to the pause.)
    ///
    /// The prefix reads no input, clock or recorded value and starts no
    /// thread, so shepherding it creates no symbol, constraint or origin:
    /// the one thread's frames hold the warm start's registers as
    /// concrete values, memory is the warm start's with its objects
    /// ([`SymMemory::from_warm`]), heap allocations are counted as the
    /// prefix asked for them, and each pc's count is how often the prefix
    /// ran it.
    ///
    /// # Panics
    ///
    /// If `warm` runs another program's code.
    pub fn from_warm(program: &Program, warm: &WarmStart) -> MachineState {
        let code = program.code();
        assert!(
            Arc::ptr_eq(code, warm.code()),
            "a warm start converts only for the code it runs"
        );
        let (frames, regs) = (warm.frames(), warm.registers());
        let frames = frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let end = frames.get(i + 1).map_or(regs.len(), |next| next.base);
                SymFrame {
                    pc: f.pc,
                    regs: regs[f.base..end]
                        .iter()
                        .map(|&w| SymValue::Concrete(w))
                        .collect(),
                    ret_dst: f.ret_dst,
                    stack_mark: f.stack_mark,
                }
            })
            .collect();
        MachineState {
            cursor: warm.events(),
            code: Arc::clone(code),
            pool: ExprPool::new(),
            path: Vec::new(),
            mem: SymMemory::from_warm(program, warm),
            threads: vec![SymThread {
                tid: 0,
                frames,
                state: ThreadState::Runnable,
            }],
            cur: 0,
            lock_owner: HashMap::new(),
            next_tid: 1,
            inputs: Vec::new(),
            input_offsets: HashMap::new(),
            origins: Origins::default(),
            site_counts: warm.counts(),
            clock: 0,
            heap_seq: warm.allocations().heap_requests,
        }
    }

    /// The state of a shepherd of `program` along `events` from the entry
    /// after it executed exactly `steps` ops, with the cursor where it
    /// stopped: the reference a [`from_warm`](Self::from_warm) state is
    /// checked against. It bills no cancel token and counts no telemetry.
    pub fn shepherded(program: &Program, events: &[TraceEvent], steps: u64) -> MachineState {
        let config = SymConfig {
            max_steps: steps,
            ..SymConfig::default()
        };
        let mut machine = SymMachine::with_state(program, config, Self::cold(program));
        er_solver::cancel::unsupervised(|| machine.run_loop(events, None)).ok();
        machine.state
    }

    /// The first part in which `self` and `other` differ, if any: for
    /// checks. Compares everything a run from either reads: the cursor,
    /// the code, the threads with their frames and registers, memory and
    /// its objects, heap allocations, site counts, the path and the pool's
    /// size, and the inputs, origins and clock.
    pub fn mismatch(&self, other: &MachineState) -> Option<&'static str> {
        if let Some(part) = self.mem.mismatch(&other.mem) {
            return Some(part);
        }
        [
            ("cursor", self.cursor == other.cursor),
            ("code", Arc::ptr_eq(&self.code, &other.code)),
            (
                "threads",
                self.threads == other.threads
                    && self.cur == other.cur
                    && self.next_tid == other.next_tid
                    && self.lock_owner == other.lock_owner,
            ),
            ("heap_seq", self.heap_seq == other.heap_seq),
            ("site counts", self.site_counts == other.site_counts),
            ("path", self.path == other.path),
            ("pool", self.pool.len() == other.pool.len()),
            (
                "inputs",
                self.inputs.len() == other.inputs.len()
                    && self.input_offsets == other.input_offsets
                    && self.origins.len() == other.origins.len()
                    && self.clock == other.clock,
            ),
        ]
        .into_iter()
        .find_map(|(part, same)| (!same).then_some(part))
    }

    /// The event-cursor position the state stands at: a run from it is
    /// valid against any trace whose first `cursor()` events are the ones
    /// that led here. Decoding drops scheduling noise, so runs whose
    /// quantum boundaries fell elsewhere still share those events.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The site the running thread is paused at (its function's entry
    /// once it has returned).
    fn position(&self) -> InstrId {
        self.code.id_of(self.pc())
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
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedLock(u64),
    BlockedJoin(u64),
    Done,
}

#[derive(Debug, Clone, PartialEq)]
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
        match op {
            Operand::Reg(r) => self.regs[r.0 as usize],
            Operand::Imm(v) => SymValue::Concrete(v),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct SymThread {
    tid: u64,
    frames: Vec<SymFrame>,
    state: ThreadState,
}

/// How the step loop proceeds after one step.
enum StepFlow {
    /// The op ran. The thread may have blocked or finished; the loop reads
    /// that from the thread's state.
    Continue,
    /// The trace scheduled another thread; this step did not execute.
    SwitchDue,
}

enum Stop {
    Stall(StallReason, Option<ExprRef>),
    Diverge(TraceDivergence),
}

/// The shepherded symbolic executor: one [`MachineState`] driven along a
/// trace, plus the run's solver engine and accounting.
#[derive(Debug)]
pub struct SymMachine<'p> {
    code: &'p Code,
    config: SymConfig,
    /// The machine itself; `state.cursor` is where the run starts.
    state: MachineState,
    /// This run's solver engine, never part of the state.
    engine: IncrementalSolver,
    /// This run's work only: a run from a warm start starts from zero.
    stats: SymStats,
    /// The running frame's registers as machine words while a slice runs
    /// it all-concrete; scratch, never part of the state.
    words: Vec<u64>,
    /// The state's overlay counts when the run started.
    overlay_start: OverlayCounts,
}

impl<'p> SymMachine<'p> {
    /// A machine ready to follow a trace of `program`.
    pub fn new(program: &'p Program, config: SymConfig) -> Self {
        Self::with_state(program, config, MachineState::cold(program))
    }

    /// A machine that picks up from `state`, a state of `program`'s own
    /// code (its [symbolic warm start](MachineState::from_warm)), skipping
    /// the events before `state.cursor()`. The caller must guarantee the
    /// trace passed to [`SymMachine::run`] starts with the events that led
    /// to `state` ([`WarmStart::prefix_matches`]).
    ///
    /// # Panics
    ///
    /// If `state` runs another program's code.
    pub fn resume(program: &'p Program, config: SymConfig, state: MachineState) -> Self {
        assert!(
            Arc::ptr_eq(&state.code, program.code()),
            "a run resumes only a state of its program's own code"
        );
        Self::with_state(program, config, state)
    }

    fn with_state(program: &'p Program, config: SymConfig, state: MachineState) -> Self {
        SymMachine {
            code: program.code(),
            config,
            overlay_start: state.mem.overlay_counts(),
            state,
            engine: IncrementalSolver::new(),
            stats: SymStats::default(),
            words: Vec::new(),
        }
    }

    /// Follows `events` to the end; `failure` is the production failure the
    /// trace leads to (`None` for a trace of a completed run). A machine
    /// built by [`SymMachine::resume`] starts at its state's cursor.
    pub fn run(mut self, events: &[TraceEvent], failure: Option<&Failure>) -> SymRunResult {
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
        let overlay = self.state.mem.overlay_counts();
        self.stats.overlay_stores = overlay.stores - self.overlay_start.stores;
        self.stats.overlay_bytes_built = overlay.bytes_built - self.overlay_start.bytes_built;
        if er_telemetry::enabled() {
            // One batched update per shepherded run; the step loop carries
            // only plain field increments.
            er_telemetry::counter!("symex.steps").add(self.stats.steps);
            er_telemetry::counter!("symex.word_ops").add(self.stats.word_ops);
            er_telemetry::counter!("symex.solver_queries").add(self.stats.solver_queries);
            er_telemetry::counter!("symex.addr_witnessed").add(self.stats.addr_witnessed);
            er_telemetry::counter!("symex.addr_bounded").add(self.stats.addr_bounded);
            er_telemetry::counter!("symex.forks_shepherded").add(self.stats.forks_shepherded);
            er_telemetry::counter!("symex.mem_reads").add(self.stats.mem_reads);
            er_telemetry::counter!("symex.mem_writes").add(self.stats.mem_writes);
            er_telemetry::counter!("symex.ptw_bound").add(self.stats.ptw_bound);
            er_telemetry::counter!("symex.overlay_stores").add(self.stats.overlay_stores);
            er_telemetry::counter!("symex.overlay_bytes_built").add(self.stats.overlay_bytes_built);
        }
        let MachineState {
            code,
            pool,
            path,
            inputs,
            origins,
            site_counts,
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
            solver: self.engine,
        }
    }

    /// One solver query against the current path condition plus
    /// `assumptions`, routed through the persistent incremental engine (or
    /// a throwaway one in the non-incremental baseline mode).
    fn query(&mut self, assumptions: &[ExprRef], budget: &Budget) -> SatResult {
        self.stats.solver_queries += 1;
        let (r, work) = if self.config.incremental_solver {
            let r = self.engine.check_assuming(
                &mut self.state.pool,
                &self.state.path,
                assumptions,
                budget,
            );
            (r, self.engine.last_stats().work_units())
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

    /// Follows `events` from the state's cursor, and leaves the cursor
    /// where the run stopped.
    fn run_loop(
        &mut self,
        events: &[TraceEvent],
        failure: Option<&Failure>,
    ) -> Result<Option<ExprRef>, Stop> {
        let mut cursor = self.state.cursor;
        let stop = self.follow(events, failure, &mut cursor);
        self.state.cursor = cursor;
        stop
    }

    fn follow(
        &mut self,
        events: &[TraceEvent],
        failure: Option<&Failure>,
        cursor: &mut usize,
    ) -> Result<Option<ExprRef>, Stop> {
        let failure_pc = failure.and_then(|f| self.code.pc_of(f.at));
        loop {
            if let Some(TraceEvent::Gap) = events.get(*cursor) {
                return Err(Stop::Diverge(TraceDivergence::TraceGap));
            }

            self.stats.steps += 1;
            if self.stats.steps > self.config.max_steps {
                return Err(Stop::Diverge(TraceDivergence::StepBudget));
            }
            // One supervised shepherd work unit per step. Stalling here
            // (rather than at an arbitrary instruction boundary) leaves the
            // machine consistent: no event half-applied.
            if er_solver::cancel::tick(1) {
                return Err(Stop::Stall(StallReason::Cancelled, None));
            }

            let pc = self.state.pc();
            let events_left = *cursor < events.len();

            // End-of-trace handling: once events run out, keep executing
            // straight-line code until the failure site (or conclude for
            // liveness failures, whose traces end mid-flight).
            if !events_left {
                if let Some(f) = failure {
                    if matches!(f.fault.kind(), FailureKind::Liveness) {
                        return Ok(None);
                    }
                    if Some(pc) == failure_pc && self.state.threads[self.state.cur].tid == f.tid {
                        return self.failure_constraint(f, pc);
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

            if self.state.threads[self.state.cur].state == ThreadState::Runnable {
                // While events remain, an event-free concrete stretch runs
                // in one slice; the op it stops at takes the step path,
                // after its own prelude.
                if events_left && self.run_slice(events, cursor) {
                    continue;
                }
                match self.step(events, cursor, pc)? {
                    StepFlow::Continue => continue,
                    StepFlow::SwitchDue => {}
                }
            }
            // The current thread cannot run, or production switched threads
            // before it requested its next event: the trace must name the
            // successor.
            match events.get(*cursor) {
                Some(TraceEvent::ThreadResume(tid)) => {
                    let tid = *tid;
                    *cursor += 1;
                    self.switch_to(tid)?;
                }
                Some(_) => {
                    return Err(Stop::Diverge(TraceDivergence::EventMismatch {
                        wanted: "thread resume",
                        at: self.code.id_of(pc),
                    }))
                }
                // A finished run without a failure returned above.
                None => return Err(Stop::Diverge(TraceDivergence::RanPastTraceEnd)),
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
        // Threads run until they *request* an event; only then may the
        // production scheduler's PGE packet take effect — otherwise a
        // thread's straight-line tail (e.g. a `spawn`) would be skipped.
        if matches!(
            op,
            Op::Call { .. } | Op::PtWrite { .. } | Op::Branch { .. } | Op::Return { .. }
        ) && matches!(events.get(*cursor), Some(TraceEvent::ThreadResume(_)))
        {
            return Ok(StepFlow::SwitchDue);
        }
        // Every executed pc is counted; `SiteCounts` reports the
        // value-defining ones.
        self.state.site_counts[pc as usize] += 1;
        self.exec(events, cursor, code.id_of(pc), op)
    }

    /// Runs the current frame from its pc through an event-free concrete
    /// stretch of the trace, and reports whether it ran any op.
    ///
    /// A slice runs only a frame whose registers are all concrete, on
    /// machine words, block by block ([`run_words`]). It runs every
    /// register-only op ([`Op::eval_words`]) and a branch whose TNT bit is
    /// the next event, which it consumes. It stops before any other op,
    /// such as a memory access, a call, a `ptwrite` or a division by zero,
    /// and leaves it to the step path, which reports a mismatch exactly as
    /// it would have. After a branch it also stops where the next step's
    /// prelude would act: at the end of the events, or on a gap. A frame holding a symbolic register, and the
    /// block in which the budget ends, take the step path op by op.
    ///
    /// The step prelude billed the first op. Each further op counts in
    /// `stats.steps` and `site_counts` as a step would, and a slice runs
    /// no more ops than the step budget and the cancel token's headroom
    /// leave, billing the token once, so both trip on the same step as
    /// they would op by op.
    fn run_slice(&mut self, events: &[TraceEvent], cursor: &mut usize) -> bool {
        let state = &mut self.state;
        let frame = state.threads[state.cur]
            .frames
            .last_mut()
            .expect("live frame");
        if !load_words(&frame.regs, &mut self.words) {
            return false;
        }
        // The first op plus what the budget and the headroom leave.
        let limit = (self.config.max_steps - self.stats.steps)
            .min(er_solver::cancel::headroom())
            .saturating_add(1);
        let mut trail = Trail {
            events,
            cursor: *cursor,
        };
        let mut pc = frame.pc as usize;
        let ran = run_words(
            self.code,
            &mut self.words,
            &mut state.site_counts,
            &mut trail,
            &mut pc,
            limit,
        );
        if ran == 0 {
            return false;
        }
        for (r, &w) in frame.regs.iter_mut().zip(&self.words) {
            *r = SymValue::Concrete(w);
        }
        frame.pc = pc as Pc;
        *cursor = trail.cursor;
        self.stats.word_ops += ran;
        if ran > 1 {
            self.stats.steps += ran - 1;
            let tripped = er_solver::cancel::tick(ran - 1);
            debug_assert!(!tripped, "a slice stays within the cancel headroom");
        }
        true
    }

    fn consume_event<'e>(
        &mut self,
        events: &'e [TraceEvent],
        cursor: &mut usize,
        wanted: &'static str,
        at: InstrId,
    ) -> Result<&'e TraceEvent, Stop> {
        // A thread switch here means production switched before this event
        // (the step path yields to a pending one before each such op).
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
                let vc = self.state.pool.bv_const(v, 64);
                if self.config.always_concretize || self.is_unique(e, v, vc, &model, &budget) {
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
                let end = base + size - (width.bytes() - 1);
                let lo = self.state.pool.bv_const(base, 64);
                let hi = self.state.pool.bv_const(end, 64);
                let ge = self.state.pool.cmp(CmpKind::Ule, lo, e);
                let lt = self.state.pool.cmp(CmpKind::Ult, e, hi);
                let inside = self.state.pool.and(ge, lt);
                let outside = self.state.pool.not(inside);
                // If containment cannot be proved (SAT or inconclusive),
                // fall through to concretization — always sound, since any
                // feasible address yields a valid stronger path.
                let contained = if self.bounded_within(e, base, end) {
                    debug_assert!(
                        matches!(self.detached_check(outside, &budget), SatResult::Unsat),
                        "an address bounded inside its object cannot leave it"
                    );
                    self.stats.addr_bounded += 1;
                    true
                } else {
                    matches!(self.query(&[outside], &budget), SatResult::Unsat)
                };
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

    /// Whether the path forces `e` to `v` (its value under `model`, a model
    /// of the path; `vc` is `v` as a constant). A witness that moves `e`
    /// answers "no" without a query; otherwise the solver decides, and an
    /// inconclusive answer counts as "no" — a sound under-approximation
    /// that avoids stalling here.
    fn is_unique(
        &mut self,
        e: ExprRef,
        v: u64,
        vc: ExprRef,
        model: &Model,
        budget: &Budget,
    ) -> bool {
        // Built either way, so the pool grows as it did when the query
        // always ran: a stall reports its size (Table 1's Graph Nodes).
        let ne = self.state.pool.ne(e, vc);
        if find_witness(&self.state.pool, &self.state.path, e, v, model).is_some() {
            // A search that stalls would have said "no" as well.
            debug_assert!(
                !matches!(self.detached_check(ne, budget), SatResult::Unsat),
                "a witness is a model of the uniqueness query"
            );
            self.stats.addr_witnessed += 1;
            return false;
        }
        // UNSAT(path ∧ e != v) means e is forced to v.
        matches!(self.query(&[ne], budget), SatResult::Unsat)
    }

    /// Whether every value of `e`, an address that reads no memory, lies in
    /// `[base, end)`, so that no path lets the access leave its object.
    /// Only for read-free addresses: the containment query on one could not
    /// have tripped the array-cell budget, which reads as "not contained".
    fn bounded_within(&self, e: ExprRef, base: u64, end: u64) -> bool {
        if self.state.pool.contains_read(e) {
            return false;
        }
        let (lo, hi) = unsigned_bound(&self.state.pool, e);
        base <= lo && hi < end
    }

    /// The path plus `assumption`, decided on the side
    /// ([`IncrementalSolver::detached_check`]): for debug checks of
    /// answers reached without a query.
    fn detached_check(&self, assumption: ExprRef, budget: &Budget) -> SatResult {
        IncrementalSolver::detached_check(&self.state.pool, &self.state.path, &[assumption], budget)
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
                let var = self.state.pool.input_var(source, offset, width.bits());
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
                    return Ok(StepFlow::Continue);
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
                    return Ok(StepFlow::Continue);
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
            Op::Bin {
                dst,
                op,
                a,
                b,
                width,
            } => {
                let (av, bv) = (self.operand(a), self.operand(b));
                let r = self.sym_bin(op, av, bv, width, at)?;
                self.set_reg(dst, r, at);
            }
            Op::Cmp {
                dst,
                pred,
                a,
                b,
                width,
            } => {
                let (av, bv) = (self.operand(a), self.operand(b));
                let r = self.sym_cmp(pred, av, bv, width);
                self.set_reg(dst, r, at);
            }
            _ => unreachable!("{op:?} is a speed form, which `Code::ops` never holds"),
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
            Ok(StepFlow::Continue)
        }
    }

    /// Builds the constraint that forces the recorded failure at the
    /// failure site (executed when the trace has been fully consumed).
    fn failure_constraint(&mut self, failure: &Failure, pc: Pc) -> Result<Option<ExprRef>, Stop> {
        let constraint = match (&failure.fault, self.code.ops()[pc as usize]) {
            (RuntimeFault::AssertFailed { .. }, Op::Assert { cond, .. }) => {
                match self.operand(cond) {
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
            (RuntimeFault::Abort { .. }, Op::Abort { .. }) => None,
            (RuntimeFault::DivByZero, Op::Bin { b, .. }) => match self.operand(b) {
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
            (fault, Op::Load { addr, .. } | Op::Store { addr, .. } | Op::Free { addr }) => {
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

/// The trace as a slice follows it.
struct Trail<'e> {
    events: &'e [TraceEvent],
    /// The next event.
    cursor: usize,
}

impl Trail<'_> {
    /// Consumes the next event if it is the TNT bit `taken`.
    #[inline(always)]
    fn take_branch(&mut self, taken: bool) -> bool {
        let hit =
            matches!(self.events.get(self.cursor), Some(&TraceEvent::Branch(t)) if t == taken);
        self.cursor += usize::from(hit);
        hit
    }

    /// Whether the next step's prelude would act here: the events ended,
    /// or a gap follows.
    #[inline(always)]
    fn prelude_acts(&self) -> bool {
        matches!(self.events.get(self.cursor), None | Some(TraceEvent::Gap))
    }
}

/// Copies `regs` into `words` if every register is concrete.
fn load_words(regs: &[SymValue], words: &mut Vec<u64>) -> bool {
    words.clear();
    for r in regs {
        let SymValue::Concrete(w) = *r else {
            return false;
        };
        words.push(w);
    }
    true
}

/// Runs an all-concrete frame's registers `w` from `pc` on
/// [`Code::fast_ops`], a block at a time, and returns how many ops ran.
///
/// Each block's remaining ops are checked against `limit` once, on entry
/// ([`Code::run_lens`]); an exit inside the block refunds the ops after
/// it. The loop stops at the block that does not fit. Every op counts at
/// its pc, a fused pair at both. No op writes a symbolic value, so the
/// frame stays all-concrete.
fn run_words(
    code: &Code,
    w: &mut [u64],
    counts: &mut [u64],
    trail: &mut Trail<'_>,
    pc: &mut usize,
    limit: u64,
) -> u64 {
    let (fast, run_len) = (code.fast_ops(), code.run_lens());
    let mut at = *pc;
    let mut ran: u64 = 0;
    'blocks: loop {
        let len = u64::from(run_len[at]);
        if ran + len > limit {
            break;
        }
        ran += len;
        loop {
            let (taken, to) = match fast[at].eval_words(w) {
                WordFlow::Next => {
                    counts[at] += 1;
                    at += 1;
                    continue;
                }
                WordFlow::Pair => {
                    counts[at] += 1;
                    counts[at + 1] += 1;
                    at += 2;
                    continue;
                }
                WordFlow::Jump(to) => {
                    counts[at] += 1;
                    at = to as usize;
                    continue 'blocks;
                }
                WordFlow::Branch { taken, to } => (taken, to),
                WordFlow::CmpBranch { taken, to } => {
                    counts[at] += 1;
                    at += 1;
                    (taken, to)
                }
                // The step path faults, or runs what touches more than
                // the frame.
                WordFlow::DivByZero | WordFlow::Other => {
                    ran -= u64::from(run_len[at]);
                    break 'blocks;
                }
            };
            // A branch, fused or not, whose TNT bit is not next is left
            // to the step path.
            if !trail.take_branch(taken) {
                ran -= 1;
                break 'blocks;
            }
            counts[at] += 1;
            at = to as usize;
            if trail.prelude_acts() {
                break 'blocks;
            }
            continue 'blocks;
        }
    }
    *pc = at;
    ran
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
    fn allocation_past_the_heap_follows_production_to_a_null_store() {
        // An input-controlled size the heap cannot hold: production's
        // `alloc` returns null and the store through it faults. With the
        // size recorded, as selection would record it after the address
        // stall, symex follows the trace to that fault.
        let program =
            compile("fn main() { let p: u64 = alloc(input_u64(0)); store8(p, 1); }").unwrap();
        let input = InstrId {
            func: FuncId(0),
            block: BlockId(0),
            index: 0,
        };
        let recorded = program.recording(&[input]);
        for size in [1u64 << 40, u64::MAX, 768 << 20] {
            let mut env = Env::new();
            env.push_input(0, &size.to_le_bytes());
            let report = Machine::with_sink(&recorded, env, PtSink::new(PtConfig::default())).run();
            let RunOutcome::Failure(failure) = report.outcome else {
                panic!("{size:#x}: the store faults")
            };
            assert_eq!(
                failure.fault,
                RuntimeFault::NullDeref { addr: 0 },
                "{size:#x}"
            );
            let events = report.sink.finish().decode().unwrap().events;
            let r = SymMachine::new(&recorded, SymConfig::default()).run(&events, Some(&failure));
            assert_eq!(r.status, ShepherdStatus::Completed, "{size:#x}");
        }
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
    /// branches end slices at varying points. Its frame stays
    /// all-concrete, so its slices run on machine words.
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

    /// [`CONCRETE_LOOP`] with an input held in a register across the
    /// loop: its frame is never all-concrete, so it runs on the step path,
    /// one op at a time.
    const MIXED_LOOP: &str = r#"
        global G: [u64; 8];
        fn main() {
            let s: u64 = input_u64(0);
            let h: u64 = 14695981039346656037;
            for i: u64 = 0; i < 200; i = i + 1 {
                h = (h ^ i) * 1099511628211;
                if i % 5 == 2 { G[i % 8] = h; }
                h = h + G[(i + 3) % 8];
            }
            print(h + s);
        }
    "#;

    /// Largest budget the exact-trip sweeps try.
    const TRIP_SWEEP: u64 = 700;

    /// Runs [`CONCRETE_LOOP`] and [`MIXED_LOOP`] once per budget `k` in
    /// `1..=TRIP_SWEEP` through `run(k)`, and checks each run executed
    /// exactly `k` ops, one more than the run for `k - 1`.
    fn sweep_trips(run: impl Fn(&Program, &[TraceEvent], u64) -> SymRunResult) {
        let input = 7u64.to_le_bytes().to_vec();
        for (name, src, inputs, words) in [
            ("concrete", CONCRETE_LOOP, vec![], true),
            ("mixed", MIXED_LOOP, vec![(0, input)], false),
        ] {
            let (program, events, failure) = record(src, &inputs);
            assert!(failure.is_none());
            let full = SymMachine::new(&program, SymConfig::default()).run(&events, None);
            assert_eq!(full.status, ShepherdStatus::Completed);
            assert!(full.site_counts.counts.iter().sum::<u64>() > TRIP_SWEEP);
            // The concrete loop runs on words; the mixed one only before
            // its input is read.
            assert_eq!(full.stats.word_ops > TRIP_SWEEP, words, "{name}");
            let mut prev = vec![0; program.code().ops().len()];
            for k in 1..=TRIP_SWEEP {
                let r = run(&program, &events, k);
                assert_eq!(r.stats.steps, k + 1, "{name} k = {k}: {:?}", r.status);
                let counts = r.site_counts.counts;
                assert_eq!(counts.iter().sum::<u64>(), k, "{name} k = {k}");
                // One more op than the previous budget, and the same ones
                // before it: no op of a slice is skipped or counted twice.
                let grown: Vec<_> = (0..counts.len())
                    .filter(|&pc| counts[pc] != prev[pc])
                    .collect();
                assert_eq!(grown.len(), 1, "{name} k = {k}");
                assert_eq!(counts[grown[0]], prev[grown[0]] + 1, "{name} k = {k}");
                prev = counts;
            }
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

    #[test]
    fn input_variables_are_named_by_stream_and_offset() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                let b: u8 = input_u8(1);
                let c: u64 = input_u64(0);
                if a + 1 == 5 { abort("five"); }
                print(b);
                print(c);
            }
        "#;
        let inputs = [(0, vec![4, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8]), (1, vec![9])];
        let (program, events, failure) = record(src, &inputs);
        let result = SymMachine::new(&program, SymConfig::default()).run(&events, failure.as_ref());
        let names: Vec<String> = result
            .inputs
            .iter()
            .map(|i| result.pool.display(i.var))
            .collect();
        assert_eq!(names, ["in0@0", "in1@0", "in0@4"]);
    }
}
