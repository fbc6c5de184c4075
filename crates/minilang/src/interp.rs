//! The concrete interpreter: runs IR programs with cooperative threads,
//! reporting control-flow and data events to a [`TraceSink`].
//!
//! Scheduling is deterministic given a [`SchedConfig`]: threads run
//! round-robin in quanta whose lengths are derived from a seeded xorshift,
//! so concurrency bugs manifest (or not) reproducibly per seed — the
//! substrate for the paper's coarse-interleaving discussion (§3.4).
//!
//! A [`WarmStart`] holds a program's input-independent prefix, run once:
//! [`Machine::warm`] starts a run from it, replaying the prefix's events
//! under the run's own schedule, instead of executing the prefix again,
//! and [`WarmStart::translate`] carries it to a rebuild of the program
//! that records more sites, when the rebuild's prefix is the same.

use crate::code::{CallSite, Code, Op, Pc};
use crate::env::Env;
use crate::error::{Failure, RuntimeFault};
use crate::ir::*;
use crate::mem::Memory;
use crate::trace::{DecodedEvent, MemEvent, NullSink, TraceSink};
use crate::word::{get, WordFlow};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Nominal instructions per scheduling quantum.
    pub quantum: u64,
    /// Seed for per-quantum jitter; different seeds explore different
    /// coarse interleavings.
    pub seed: u64,
    /// Total instruction budget before the run is declared a hang.
    pub max_instrs: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            quantum: 1_000,
            seed: 1,
            max_instrs: 200_000_000,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// `main` returned (and all spawned threads were joined or finished).
    Completed,
    /// The program faulted.
    Failure(Failure),
}

/// Everything observable about one finished run.
#[derive(Debug)]
pub struct RunReport<S> {
    /// Completion or failure.
    pub outcome: RunOutcome,
    /// Values printed via `print`.
    pub output: Vec<u64>,
    /// Dynamic instructions executed (terminators included).
    pub instr_count: u64,
    /// Final memory image (for core-dump-style analyses).
    pub mem: Memory,
    /// The trace sink, with whatever it captured.
    pub sink: S,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedLock(u64),
    BlockedJoin(u64),
    Done,
}

/// One call frame of a thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The op the frame runs next; a caller's stays on its call.
    pub pc: Pc,
    /// This frame's first register in the thread's register stack.
    pub base: usize,
    /// The caller's register that receives the return value.
    pub ret_dst: Option<Reg>,
    /// The thread's stack watermark when the frame was entered, restored
    /// when it returns.
    pub stack_mark: u64,
}

#[derive(Debug)]
struct Thread {
    tid: u64,
    frames: Vec<Frame>,
    /// Every live frame's registers, innermost last: a call grows it and
    /// a return truncates it, so calls reuse its capacity.
    regs: Vec<u64>,
    state: ThreadState,
}

impl Thread {
    fn frame(&self) -> &Frame {
        self.frames.last().expect("live frame")
    }

    /// Reads `op` in the innermost frame.
    fn operand(&self, op: Operand) -> u64 {
        get(&self.regs[self.frame().base..], op)
    }

    fn advance(&mut self) {
        self.frames.last_mut().expect("live frame").pc += 1;
    }
}

/// How the run loop goes on after [`World::exec`] runs an op.
enum Flow {
    /// At the next op.
    Next,
    /// Two ops on: a fused op→move pair ran.
    Pair,
    /// At this pc: a jump or branch left the block.
    Jump(Pc),
    /// Outside the loop, with the pc on this op: it faulted, or it changes
    /// frames or threads.
    Exit(Result<Op, RuntimeFault>),
}

impl From<Result<(), RuntimeFault>> for Flow {
    #[inline(always)]
    fn from(done: Result<(), RuntimeFault>) -> Flow {
        match done {
            Ok(()) => Flow::Next,
            Err(f) => Flow::Exit(Err(f)),
        }
    }
}

/// The machine state ops touch besides their frame's registers, disjoint
/// from the thread table.
#[derive(Debug)]
struct World<S> {
    env: Env,
    mem: Memory,
    output: Vec<u64>,
    sink: S,
}

impl<S: TraceSink> World<S> {
    /// Runs `op` of thread `tid` against its innermost frame's `regs`.
    /// This is the one definition of every op the loops run themselves,
    /// shared by the per-block loop of [`Machine::run_slice`] and the
    /// per-op loop of [`World::step_ops`]; ops that change frames or
    /// threads exit to [`Machine`]'s own methods. Register-only ops run on
    /// [`Op::eval_words`]; a branch reports its TNT bit to the sink.
    /// `icount` is the count billed so far, exact at a branch: a branch
    /// ends its block.
    #[inline(always)]
    fn exec(&mut self, code: &Code, op: &Op, regs: &mut [u64], tid: u64, icount: u64) -> Flow {
        match op.eval_words(regs) {
            WordFlow::Next => Flow::Next,
            WordFlow::Pair => Flow::Pair,
            WordFlow::Jump(to) => Flow::Jump(to),
            WordFlow::Branch { taken, to } | WordFlow::CmpBranch { taken, to } => {
                if S::RECORDS_WARM_START {
                    self.sink.at(icount);
                }
                self.sink.cond_branch(taken);
                Flow::Jump(to)
            }
            WordFlow::DivByZero => Flow::Exit(Err(RuntimeFault::DivByZero)),
            WordFlow::Other => self.exec_world(code, op, regs, tid),
        }
    }

    /// Runs an op that touches more than its frame's registers. A sink
    /// recording a warm start stops the run before an op that reads the
    /// run's environment or records a value.
    #[inline(always)]
    fn exec_world(&mut self, code: &Code, op: &Op, regs: &mut [u64], tid: u64) -> Flow {
        if S::RECORDS_WARM_START
            && matches!(op, Op::Input { .. } | Op::Clock { .. } | Op::PtWrite { .. })
        {
            return Flow::Exit(Ok(*op));
        }
        match *op {
            Op::Load { dst, addr, width } => match self.mem.load(get(regs, addr), width) {
                Ok(v) => set(regs, dst, v),
                Err(f) => Flow::Exit(Err(f)),
            },
            Op::Store { addr, value, width } => self
                .mem
                .store(get(regs, addr), width, get(regs, value))
                .into(),
            Op::StackAlloc { dst, size } => {
                let base = self.mem.stack_alloc(tid, size);
                if S::RECORDS_WARM_START {
                    self.sink.memory(MemEvent::StackAlloc { base, size });
                }
                set(regs, dst, base)
            }
            Op::Alloc { dst, size } => {
                let size = get(regs, size);
                let base = self.mem.heap_alloc(size);
                if S::RECORDS_WARM_START {
                    self.sink.memory(MemEvent::HeapAlloc { base, size });
                }
                set(regs, dst, base)
            }
            Op::Free { addr } => {
                let base = get(regs, addr);
                let freed = self.mem.heap_free(base);
                if S::RECORDS_WARM_START && freed.is_ok() {
                    self.sink.memory(MemEvent::HeapFree { base });
                }
                freed.into()
            }
            Op::Input { dst, source, width } => match self.env.read_input(source, width) {
                Ok((v, event)) => {
                    self.sink.input(&event);
                    set(regs, dst, v)
                }
                Err(f) => Flow::Exit(Err(f)),
            },
            Op::Clock { dst } => {
                let v = self.env.read_clock();
                self.sink.clock_read(v);
                set(regs, dst, v)
            }
            Op::PtWrite { value } => {
                self.sink.ptwrite(get(regs, value));
                Flow::Next
            }
            Op::Print { value } => {
                self.output.push(get(regs, value));
                Flow::Next
            }
            Op::Assert { cond, message } => {
                if get(regs, cond) == 0 {
                    Flow::Exit(Err(RuntimeFault::AssertFailed {
                        message: code.message(message).to_string(),
                    }))
                } else {
                    Flow::Next
                }
            }
            Op::Abort { message } => Flow::Exit(Err(RuntimeFault::Abort {
                message: code.message(message).to_string(),
            })),
            Op::Call { .. }
            | Op::Spawn { .. }
            | Op::Join { .. }
            | Op::Lock { .. }
            | Op::Unlock { .. }
            | Op::Return { .. } => Flow::Exit(Ok(*op)),
            _ => unreachable!("{op:?} runs on `Op::eval_words`"),
        }
    }

    /// Runs [`Code::ops`] one op at a time from `pc`, billing each to
    /// `icount`, until the count reaches `stop` (`None`) or an op faults or
    /// changes frames or threads (that exit, with `pc` on the op). This is
    /// the per-op path of [`Machine::run_slice`], out of line so the
    /// per-block loop keeps its hot values in registers. Its ALU ops are
    /// the generic forms, which run through the same [`Op::eval_words`]
    /// as the block loop's speed forms.
    #[inline(never)]
    fn step_ops(
        &mut self,
        code: &Code,
        regs: &mut [u64],
        tid: u64,
        pc: &mut usize,
        icount: &mut u64,
        stop: u64,
    ) -> Option<Result<Op, RuntimeFault>> {
        loop {
            if *icount >= stop {
                return None;
            }
            *icount += 1;
            match self.exec(code, &code.ops()[*pc], regs, tid, *icount) {
                Flow::Next => *pc += 1,
                Flow::Pair => unreachable!("`Code::ops` holds no fused pairs"),
                Flow::Jump(_) => unreachable!("the per-op loop stops before a terminator"),
                Flow::Exit(exit) => return Some(exit),
            }
        }
    }
}

/// `dst = v`.
#[inline(always)]
fn set(regs: &mut [u64], dst: Reg, v: u64) -> Flow {
    regs[dst.0 as usize] = v;
    Flow::Next
}

/// An IR interpreter with a pluggable trace sink.
#[derive(Debug)]
pub struct Machine<'p, S = NullSink> {
    code: &'p Code,
    entry: FuncId,
    world: World<S>,
    threads: Vec<Thread>,
    run_queue: VecDeque<usize>,
    lock_owner: HashMap<u64, u64>,
    icount: u64,
    next_tid: u64,
    sched: SchedConfig,
    rng: u64,
    /// The deadline of the slice thread 0 is in the middle of, on a
    /// machine [`warm`](Machine::warm)-started past the slice's start.
    resume_slice: Option<u64>,
}

impl<'p> Machine<'p, NullSink> {
    /// A machine running `program` against `env` with no monitoring.
    pub fn new(program: &'p Program, env: Env) -> Self {
        Machine::with_sink(program, env, NullSink)
    }
}

impl<'p, S: TraceSink> Machine<'p, S> {
    /// A machine that reports events to `sink`.
    pub fn with_sink(program: &'p Program, env: Env, sink: S) -> Self {
        let code = &**program.code();
        let entry = program.entry();
        let mem = Memory::new(program);
        let main = Thread {
            tid: 0,
            frames: vec![Frame {
                pc: code.entry(),
                base: 0,
                ret_dst: None,
                stack_mark: mem.stack_watermark(0),
            }],
            regs: vec![0; program.func(entry).n_regs],
            state: ThreadState::Runnable,
        };
        Machine {
            code,
            entry,
            world: World {
                env,
                mem,
                output: Vec::new(),
                sink,
            },
            threads: vec![main],
            run_queue: VecDeque::from([0]),
            lock_owner: HashMap::new(),
            icount: 0,
            next_tid: 1,
            sched: SchedConfig::default(),
            rng: SchedConfig::default().seed | 1,
            resume_slice: None,
        }
    }

    /// A machine running `program` from `warm`, its warm start, against
    /// `env` under `sched`: the state a cold run of the same schedule
    /// reaches after the prefix, its sink having received the same
    /// events. The prefix's branch, call and return events are replayed
    /// into `sink` at their instruction counts, with thread 0's resume
    /// after every event counted up to each of the run's own quantum
    /// boundaries, and the machine goes on in the middle of its slice.
    ///
    /// Returns `None` when the budget does not cover the prefix
    /// (`sched.max_instrs` ≤ [`WarmStart::instrs`]): the cold run hangs
    /// inside it.
    ///
    /// # Panics
    ///
    /// If `warm` was captured from another program's code.
    pub fn warm(
        program: &'p Program,
        warm: &WarmStart,
        env: Env,
        mut sink: S,
        sched: SchedConfig,
    ) -> Option<Self> {
        assert!(
            Arc::ptr_eq(program.code(), &warm.code),
            "a warm start runs only the code it was captured from"
        );
        let prefix = &*warm.prefix;
        if sched.max_instrs <= prefix.icount {
            return None;
        }
        let mut replay = Replay::default();
        let mut rng = sched.seed | 1;
        let mut deadline = 0;
        loop {
            sink.thread_resume(0, deadline);
            deadline += next_quantum(&mut rng, sched.quantum);
            if deadline > prefix.icount {
                break;
            }
            replay.until(&prefix.events, deadline, &mut sink);
        }
        replay.until(&prefix.events, prefix.icount, &mut sink);
        Some(Machine {
            code: program.code(),
            entry: program.entry(),
            world: World {
                env,
                mem: prefix.mem.clone(),
                output: prefix.output.clone(),
                sink,
            },
            threads: vec![Thread {
                tid: 0,
                frames: warm.frames.clone(),
                regs: prefix.regs.clone(),
                state: ThreadState::Runnable,
            }],
            run_queue: VecDeque::new(),
            lock_owner: HashMap::new(),
            icount: prefix.icount,
            next_tid: 1,
            sched,
            rng,
            resume_slice: Some(deadline),
        })
    }

    /// Overrides the scheduler configuration.
    ///
    /// # Panics
    ///
    /// On a [`warm`](Self::warm)-started machine, which is already some
    /// way into the schedule it was started with.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        assert!(
            self.resume_slice.is_none(),
            "a warm-started machine keeps the schedule it was started with"
        );
        self.sched = sched;
        self.rng = sched.seed | 1;
        self
    }

    fn next_quantum(&mut self) -> u64 {
        next_quantum(&mut self.rng, self.sched.quantum)
    }

    /// Runs to completion or failure, consuming the machine.
    pub fn run(mut self) -> RunReport<S> {
        let outcome = self.run_loop();
        RunReport {
            outcome,
            output: self.world.output,
            instr_count: self.icount,
            mem: self.world.mem,
            sink: self.world.sink,
        }
    }

    fn run_loop(&mut self) -> RunOutcome {
        if let Some(deadline) = self.resume_slice.take() {
            if let Some(outcome) = self.run_quantum(0, deadline) {
                return outcome;
            }
        }
        loop {
            let Some(t) = self.run_queue.pop_front() else {
                // Nothing runnable. Either everything finished or we have a
                // deadlock among blocked threads.
                if let Some(blocked) = self.threads.iter().position(|t| {
                    matches!(
                        t.state,
                        ThreadState::BlockedLock(_) | ThreadState::BlockedJoin(_)
                    )
                }) {
                    return RunOutcome::Failure(self.failure_at(blocked, RuntimeFault::Deadlock));
                }
                return RunOutcome::Completed;
            };
            if self.threads[t].state != ThreadState::Runnable {
                continue;
            }
            let tid = self.threads[t].tid;
            self.world.sink.thread_resume(tid, self.icount);
            let deadline = self.icount + self.next_quantum();
            if let Some(outcome) = self.run_quantum(t, deadline) {
                return outcome;
            }
        }
    }

    /// Runs thread `t` until `deadline` and queues it again if it can go
    /// on; the run's outcome if it ended.
    fn run_quantum(&mut self, t: usize, deadline: u64) -> Option<RunOutcome> {
        // The instruction budget folds into the quantum: the slice stops
        // at whichever comes first. A quantum that ends exactly on the
        // budget still ends normally, so the hang is raised on the next
        // thread scheduled, before it executes anything.
        match self.run_slice(t, deadline.min(self.sched.max_instrs)) {
            StepResult::Continue if self.icount < deadline => {
                return Some(RunOutcome::Failure(self.failure_at(t, RuntimeFault::Hang)));
            }
            StepResult::Continue | StepResult::Descheduled => {}
            StepResult::Fault(f) => return Some(RunOutcome::Failure(self.failure_at(t, f))),
            StepResult::Paused => unreachable!("only a warm-start capture pauses"),
        }
        if self.threads[t].state == ThreadState::Runnable {
            self.run_queue.push_back(t);
        }
        None
    }

    fn failure_at(&self, thread_index: usize, fault: RuntimeFault) -> Failure {
        let th = &self.threads[thread_index];
        let at = th
            .frames
            .last()
            .map(|f| self.code.id_of(f.pc))
            .unwrap_or(InstrId {
                func: self.entry,
                block: BlockId(0),
                index: 0,
            });
        Failure {
            fault,
            at,
            call_stack: th
                .frames
                .iter()
                .map(|f| self.code.id_of(f.pc).func)
                .collect(),
            tid: th.tid,
        }
    }

    /// Runs thread `t` until the instruction count reaches `stop` (then
    /// returns [`StepResult::Continue`]), or it blocks, finishes or faults.
    ///
    /// Straight-line instructions and branches touch only the innermost
    /// frame and machine state disjoint from the thread table, so they run
    /// in one tight loop over locals: the pc, the frame's registers and
    /// the instruction count. Instructions that push or pop frames, or
    /// create, block or wake threads, leave the loop and run in their own
    /// methods, after which the loop reloads the innermost frame.
    ///
    /// The count is billed per block. When the rest of the block fits
    /// under `stop`, it is billed whole and runs on [`Code::fast_ops`],
    /// fused pairs included, with no per-op check; a fault or a
    /// frame-changing op refunds the ops after it, so the count includes
    /// that op as it always has. Only the block in which `stop` falls runs
    /// op by op on [`Code::ops`] ([`World::step_ops`]), so the run stops on
    /// exactly the same op as a per-op check would.
    fn run_slice(&mut self, t: usize, stop: u64) -> StepResult {
        let code = self.code;
        let (fast, run_len) = (code.fast_ops(), code.run_lens());
        loop {
            let thread = &mut self.threads[t];
            let tid = thread.tid;
            let frame = thread.frames.last_mut().expect("live frame");
            let regs = &mut thread.regs[frame.base..];
            let mut pc = frame.pc as usize;
            let mut icount = self.icount;
            let exit = 'blocks: loop {
                // Every block the slice enters passes here: the per-op
                // loop stops before its block's terminator.
                if S::RECORDS_WARM_START {
                    self.world.sink.enter(pc as Pc);
                }
                let len = u64::from(run_len[pc]);
                if icount + len > stop {
                    break self
                        .world
                        .step_ops(code, regs, tid, &mut pc, &mut icount, stop);
                }
                icount += len;
                // The block's ops from the current one on; a slice rather
                // than a pc, so the loop carries one value fewer.
                let mut rest = &fast[pc..];
                loop {
                    match self.world.exec(code, &rest[0], regs, tid, icount) {
                        Flow::Next => rest = &rest[1..],
                        Flow::Pair => rest = &rest[2..],
                        Flow::Jump(to) => {
                            pc = to as usize;
                            continue 'blocks;
                        }
                        Flow::Exit(exit) => {
                            pc = fast.len() - rest.len();
                            // Refund the ops after this one.
                            icount -= u64::from(run_len[pc]) - 1;
                            break 'blocks Some(exit);
                        }
                    }
                }
            };
            // The pc stays on a faulting or frame-changing instruction.
            frame.pc = pc as Pc;
            self.icount = icount;
            let flow = match exit {
                None => return StepResult::Continue,
                Some(Err(f)) => return StepResult::Fault(f),
                Some(Ok(op)) if S::RECORDS_WARM_START && depends_on_run(&op) => {
                    // Paused before `op`: it has not run, so it is not
                    // counted.
                    self.icount -= 1;
                    return StepResult::Paused;
                }
                Some(Ok(Op::Call { site })) => self.call(t, code.call_site(site)),
                Some(Ok(Op::Spawn { site })) => self.spawn(t, code.call_site(site)),
                Some(Ok(Op::Join { tid })) => self.join(t, tid),
                Some(Ok(Op::Lock { lock })) => self.lock(t, lock),
                Some(Ok(Op::Unlock { lock })) => self.unlock(t, lock),
                Some(Ok(Op::Return { value })) => self.ret(t, value),
                Some(Ok(op)) => unreachable!("{op:?} runs inside the slice loop"),
            };
            if !matches!(flow, StepResult::Continue) {
                return flow;
            }
        }
    }

    fn ret(&mut self, t: usize, value: Option<Operand>) -> StepResult {
        let thread = &mut self.threads[t];
        let value = value.map(|op| thread.operand(op)).unwrap_or(0);
        if S::RECORDS_WARM_START {
            self.world.sink.at(self.icount);
        }
        self.world.sink.ret();
        self.world
            .sink
            .ret_value(self.code.id_of(thread.frame().pc).func, value);
        let frame = thread.frames.pop().expect("live frame");
        if S::RECORDS_WARM_START {
            self.world.sink.memory(MemEvent::StackRelease {
                to: frame.stack_mark,
                top: self.world.mem.stack_watermark(thread.tid),
            });
        }
        self.world.mem.stack_restore(thread.tid, frame.stack_mark);
        thread.regs.truncate(frame.base);
        if let Some(caller) = thread.frames.last_mut() {
            if let Some(dst) = frame.ret_dst {
                thread.regs[caller.base + dst.0 as usize] = value;
            }
            caller.pc += 1; // move past the Call instruction
            StepResult::Continue
        } else {
            self.thread_done(t);
            StepResult::Descheduled
        }
    }

    fn thread_done(&mut self, t: usize) {
        self.threads[t].state = ThreadState::Done;
        let tid = self.threads[t].tid;
        // Wake joiners.
        for (i, th) in self.threads.iter_mut().enumerate() {
            if th.state == ThreadState::BlockedJoin(tid) {
                th.state = ThreadState::Runnable;
                self.run_queue.push_back(i);
            }
        }
    }

    fn call(&mut self, t: usize, site: &CallSite) -> StepResult {
        let thread = &mut self.threads[t];
        let caller_base = thread.frame().base;
        let base = thread.regs.len();
        thread.regs.resize(base + site.n_regs, 0);
        let (caller, callee) = thread.regs.split_at_mut(base);
        for (r, a) in callee.iter_mut().zip(site.args.iter()) {
            *r = get(&caller[caller_base..], *a);
        }
        if S::RECORDS_WARM_START {
            self.world.sink.at(self.icount);
        }
        self.world.sink.call(site.func);
        self.world
            .sink
            .call_args(site.func, &callee[..site.n_params]);
        let mark = self.world.mem.stack_watermark(thread.tid);
        // The caller's pc stays on the Call until the callee returns.
        thread.frames.push(Frame {
            pc: site.entry,
            base,
            ret_dst: site.dst,
            stack_mark: mark,
        });
        StepResult::Continue
    }

    fn spawn(&mut self, t: usize, site: &CallSite) -> StepResult {
        let mut regs = vec![0u64; site.n_regs];
        for (r, a) in regs.iter_mut().zip(site.args.iter()) {
            *r = self.threads[t].operand(*a);
        }
        let tid = self.next_tid;
        self.next_tid += 1;
        let mark = self.world.mem.stack_watermark(tid);
        self.threads.push(Thread {
            tid,
            frames: vec![Frame {
                pc: site.entry,
                base: 0,
                ret_dst: None,
                stack_mark: mark,
            }],
            regs,
            state: ThreadState::Runnable,
        });
        self.run_queue.push_back(self.threads.len() - 1);
        let thread = &mut self.threads[t];
        let dst = site.dst.expect("spawn sites define the thread id");
        let base = thread.frame().base;
        thread.regs[base + dst.0 as usize] = tid;
        thread.advance();
        StepResult::Continue
    }

    fn join(&mut self, t: usize, tid: Operand) -> StepResult {
        let target = self.threads[t].operand(tid);
        if target >= self.next_tid {
            return StepResult::Fault(RuntimeFault::BadJoin { tid: target });
        }
        let done = self
            .threads
            .iter()
            .any(|th| th.tid == target && th.state == ThreadState::Done);
        if done {
            self.threads[t].advance();
            return StepResult::Continue;
        }
        self.threads[t].state = ThreadState::BlockedJoin(target);
        // Advance past the Join now: the target's exit is what wakes this
        // thread, so there is nothing to re-check.
        self.threads[t].advance();
        StepResult::Descheduled
    }

    fn lock(&mut self, t: usize, lock: Operand) -> StepResult {
        let id = self.threads[t].operand(lock);
        if self.lock_owner.contains_key(&id) {
            self.threads[t].state = ThreadState::BlockedLock(id);
            // The pc is *not* advanced: the lock is re-attempted when the
            // thread is woken by an unlock.
            return StepResult::Descheduled;
        }
        self.lock_owner.insert(id, self.threads[t].tid);
        self.threads[t].advance();
        StepResult::Continue
    }

    fn unlock(&mut self, t: usize, lock: Operand) -> StepResult {
        let id = self.threads[t].operand(lock);
        self.lock_owner.remove(&id);
        // Wake all waiters; they re-contend for the lock.
        for (i, th) in self.threads.iter_mut().enumerate() {
            if th.state == ThreadState::BlockedLock(id) {
                th.state = ThreadState::Runnable;
                self.run_queue.push_back(i);
            }
        }
        self.threads[t].advance();
        StepResult::Continue
    }
}

/// How a slice ended, or how an op that changes frames or threads went.
enum StepResult {
    /// The thread can go on running.
    Continue,
    /// The thread blocked or finished: its slice ends early.
    Descheduled,
    Fault(RuntimeFault),
    /// A warm-start capture reached an op that depends on the run.
    Paused,
}

/// Draws the next quantum length from the xorshift64* state `rng`: jitter
/// in `[quantum/2, 3*quantum/2)`.
fn next_quantum(rng: &mut u64, quantum: u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let q = quantum.max(2);
    q / 2 + (*rng % q)
}

/// Whether `op`'s effect depends on the run: it reads the run's inputs or
/// clock, records a value, or involves other threads, whose schedule is
/// the run's own. A warm start ends before the first such op.
fn depends_on_run(op: &Op) -> bool {
    matches!(
        op,
        Op::Input { .. }
            | Op::Clock { .. }
            | Op::PtWrite { .. }
            | Op::Spawn { .. }
            | Op::Join { .. }
            | Op::Lock { .. }
            | Op::Unlock { .. }
    )
}

/// The longest prefix a capture runs before giving up on a warm start;
/// every count of a captured prefix fits in a `u32`.
const CAPTURE_LIMIT: u64 = 1 << 25;

/// A program's input-independent prefix, run once: the state of a run
/// paused before its first op whose effect depends on the run (an input
/// or clock read, a `ptwrite`, or a thread op), and every branch, call
/// and return event before it, each with its exact instruction count.
///
/// Every run of the program executes that prefix identically, whatever
/// its environment and schedule: the prefix is single-threaded, and a
/// schedule changes only where thread 0's resumes fall among its events.
/// [`Machine::warm`] starts a run from here and replays the events into
/// the run's sink under the run's own quanta, so sink, output, memory and
/// instruction count end exactly as in a cold run.
///
/// A rebuild of the program with recording slots of its own runs the same
/// prefix unless it reaches one of them first, so
/// [`translate`](Self::translate) carries the start over to it.
///
/// The read accessors expose what a symbolic executor needs to start its
/// own run of a trace here: the paused thread's frames and registers, the
/// memory and the objects in it, how many ops of each pc the prefix ran,
/// and how many decoded trace events it accounts for.
#[derive(Debug)]
pub struct WarmStart {
    /// The code this start runs.
    code: Arc<Code>,
    /// The paused thread's frames, their pcs in `code`.
    frames: Vec<Frame>,
    /// The rest of the state and the events, the same in every build the
    /// start is translated to.
    prefix: Arc<Prefix>,
}

/// What a captured prefix leaves behind besides its frames' pcs.
#[derive(Debug)]
struct Prefix {
    /// The code the capture ran, whose pcs `entries` indexes.
    code: Arc<Code>,
    mem: Memory,
    regs: Vec<u64>,
    output: Vec<u64>,
    /// The prefix's length in instructions.
    icount: u64,
    events: PrefixEvents,
    /// How many times the block loop entered the code at each pc: from
    /// each entry, the prefix ran the block's ops up to its first call,
    /// inclusive, or up to the op it paused before, exclusive, or to the
    /// block's end.
    entries: Vec<u32>,
    objects: Allocations,
}

/// The memory objects live at a warm start's pause, and the allocations
/// and frees that made them: what a symbolic executor needs to name each
/// object as its own run of the prefix would have.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allocations {
    /// The live stack objects, ascending by address.
    pub stack: Vec<StackObject>,
    /// The heap allocations that succeeded, in order, which is ascending
    /// by address: freed ones stay, as the heap never reuses an address.
    pub heap: Vec<HeapObject>,
    /// How many heap allocations the prefix asked for, failed ones
    /// included.
    pub heap_requests: u64,
    /// The addresses of the heap allocations freed, in the order freed.
    pub freed: Vec<u64>,
}

/// A stack allocation live at a warm start's pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackObject {
    /// Its address.
    pub base: u64,
    /// The requested size.
    pub size: u64,
    /// The allocating op's function.
    pub func: FuncId,
    /// The allocating op's block.
    pub block: BlockId,
}

/// A heap allocation of a warm start's prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapObject {
    /// Its address.
    pub base: u64,
    /// The requested size.
    pub size: u64,
    /// Which of the prefix's heap requests made it, counted from 1.
    pub request: u64,
}

impl WarmStart {
    /// Runs `program` from its entry to the first op that depends on the
    /// run. `None` if the run completes or faults first, or runs past
    /// the capture limit: such a program has no prefix to share.
    pub fn capture(program: &Program) -> Option<WarmStart> {
        let code = program.code();
        let mut machine = Machine::with_sink(program, Env::new(), Recorder::new(code));
        if !matches!(machine.run_slice(0, CAPTURE_LIMIT), StepResult::Paused) {
            return None;
        }
        let main = machine.threads.swap_remove(0);
        let world = machine.world;
        let Recorder {
            events,
            entries,
            stack,
            mut objects,
            ..
        } = world.sink;
        objects.stack = stack
            .into_iter()
            .map(|(base, (size, pc))| {
                let id = code.id_of(pc);
                StackObject {
                    base,
                    size,
                    func: id.func,
                    block: id.block,
                }
            })
            .collect();
        Some(WarmStart {
            code: Arc::clone(code),
            frames: main.frames,
            prefix: Arc::new(Prefix {
                code: Arc::clone(code),
                mem: world.mem,
                regs: main.regs,
                output: world.output,
                icount: machine.icount,
                events,
                entries,
                objects,
            }),
        })
    }

    /// This start on `rebuilt`, a build of the same IR with recording
    /// slots of its own ([`Program::recording`] of the same program), with
    /// no instruction run again: memory, registers, output, count and
    /// events are shared, and each frame's pc moves to the same
    /// instruction of `rebuilt`'s code.
    ///
    /// `None` exactly when `rebuilt`'s own capture would pause elsewhere:
    /// the prefix went on from a site that `rebuilt` records (and this
    /// build does not) to the op after it, so the rebuild would pause at
    /// that recording slot first; or the prefix paused at a recording
    /// slot that `rebuilt` lacks, so the rebuild would run on.
    pub fn translate(&self, rebuilt: &Program) -> Option<WarmStart> {
        let to = &**rebuilt.code();
        let prefix = &*self.prefix;
        let counts = prefix.counts();
        for slot in 1..to.ops().len() as Pc {
            if to.is_recording(slot) {
                let id = to.id_of(slot);
                if slot_of(&prefix.code, id).is_none()
                    && prefix.went_on(&counts, prefix.code.pc_of(id)?)
                {
                    return None;
                }
            }
        }
        let frames = self
            .frames
            .iter()
            .map(|f| {
                let pc = moved_pc(&self.code, to, f.pc);
                Some(Frame { pc: pc?, ..*f })
            })
            .collect::<Option<_>>()?;
        Some(WarmStart {
            code: Arc::clone(rebuilt.code()),
            frames,
            prefix: Arc::clone(&self.prefix),
        })
    }

    /// The prefix's length in instructions: the count a run has when it
    /// reaches the op the capture paused before.
    pub fn instrs(&self) -> u64 {
        self.prefix.icount
    }

    /// The op the capture paused before: its instruction, and whether it
    /// is that instruction's recording slot rather than the instruction.
    pub fn paused_op(&self) -> (InstrId, bool) {
        let pc = self.frames.last().expect("a paused frame").pc;
        (self.code.id_of(pc), self.code.is_recording(pc))
    }

    /// The code this start runs: its program's [`Program::code`].
    pub fn code(&self) -> &Arc<Code> {
        &self.code
    }

    /// The paused thread's frames, outermost first, their pcs in the code
    /// of the program this start runs.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The paused thread's registers: each frame's from its
    /// [`base`](Frame::base) to the next frame's.
    pub fn registers(&self) -> &[u64] {
        &self.prefix.regs
    }

    /// The memory at the pause.
    pub fn memory(&self) -> &Memory {
        &self.prefix.mem
    }

    /// The objects live at the pause and how the prefix allocated them.
    pub fn allocations(&self) -> &Allocations {
        &self.prefix.objects
    }

    /// How many events a decoded trace of any run of the program holds
    /// for the prefix: its branches, calls and returns.
    pub fn events(&self) -> usize {
        self.prefix.events.at.len()
    }

    /// Whether the decoded trace `events` starts with the prefix's
    /// events: the branch outcomes, compared a word at a time, then the
    /// calls and returns between them.
    pub fn prefix_matches<E: DecodedEvent>(&self, events: &[E]) -> bool {
        let prefix = &self.prefix.events;
        let Some(events) = events.get(..prefix.at.len()) else {
            return false;
        };
        // Events and branches before the current mark.
        let (mut event, mut branch) = (0, 0);
        for mark in prefix.marks.iter().map(Some).chain([None]) {
            let end = mark.map_or(events.len(), |m| m.event as usize);
            if !branches_match(&prefix.taken, branch, &events[event..end]) {
                return false;
            }
            branch += end - event;
            let Some(m) = mark else {
                return true;
            };
            let ev = &events[end];
            if !(if m.call {
                ev.is_call(m.func)
            } else {
                ev.is_ret()
            }) {
                return false;
            }
            event = end + 1;
        }
        unreachable!("the last mark is none")
    }

    /// How many times the prefix ran each op of this start's code, by
    /// pc: a run of the program executes exactly these ops before the
    /// pause. The op paused before ran no time.
    pub fn counts(&self) -> Vec<u64> {
        let prefix = &*self.prefix;
        let counts = prefix.counts();
        if Arc::ptr_eq(&self.code, &prefix.code) {
            return counts;
        }
        let mut moved = vec![0; self.code.ops().len()];
        for (pc, &n) in counts.iter().enumerate() {
            if n > 0 {
                let to = moved_pc(&prefix.code, &self.code, pc as Pc)
                    .expect("every op the prefix ran is in each build it translates to");
                moved[to as usize] = n;
            }
        }
        moved
    }
}

/// The pc of `from`'s op at `pc` in `to`, another build of the same IR:
/// the same instruction, or its recording slot for a recording slot.
fn moved_pc(from: &Code, to: &Code, pc: Pc) -> Option<Pc> {
    let id = from.id_of(pc);
    if from.is_recording(pc) {
        slot_of(to, id)
    } else {
        to.pc_of(id)
    }
}

/// Whether the decoded `events` are the branch outcomes `from..` of
/// `taken`, compared up to a word at a time.
fn branches_match<E: DecodedEvent>(taken: &[u64], mut from: usize, mut events: &[E]) -> bool {
    while !events.is_empty() {
        let (word, bit) = (from / 64, from % 64);
        let k = events.len().min(64 - bit);
        let mut bits = 0;
        for (i, ev) in events[..k].iter().enumerate() {
            let Some(t) = ev.branch() else {
                return false;
            };
            bits |= u64::from(t) << i;
        }
        if bits != (taken[word] >> bit) & (u64::MAX >> (64 - k)) {
            return false;
        }
        from += k;
        events = &events[k..];
    }
    true
}

/// Two starts are equal when a run from either is the same run: the same
/// code, frames, registers, memory and its objects, output, count and
/// events. How often the capture entered each pc is bookkeeping in its
/// own code's pcs, not state.
impl PartialEq for WarmStart {
    fn eq(&self, other: &WarmStart) -> bool {
        let (a, b) = (&*self.prefix, &*other.prefix);
        self.code == other.code
            && self.frames == other.frames
            && a.icount == b.icount
            && a.regs == b.regs
            && a.output == b.output
            && a.events == b.events
            && a.objects == b.objects
            && a.mem.dump() == b.mem.dump()
    }
}

impl Prefix {
    /// How many times the prefix ran each op of its code, by pc: the sum
    /// of the entries that reach the op, where an entry at or before it in
    /// its block reaches it unless a call or an op the prefix ends before
    /// lies between. An entry reaches a call and runs it, but goes on from
    /// it only as a new entry after the callee returns; no entry runs an
    /// op the prefix ends before.
    fn counts(&self) -> Vec<u64> {
        let (ops, run_len) = (self.code.ops(), self.code.run_lens());
        let mut counts = vec![0; ops.len()];
        let mut reaching = 0;
        for (pc, op) in ops.iter().enumerate() {
            if pc == 0 || run_len[pc - 1] == 1 {
                // `pc` starts its block.
                reaching = 0;
            }
            reaching += u64::from(self.entries[pc]);
            if depends_on_run(op) {
                reaching = 0;
                continue;
            }
            counts[pc] = reaching;
            if matches!(op, Op::Call { .. }) {
                reaching = 0;
            }
        }
        counts
    }

    /// Whether the prefix ran the op at `pc` of its code and went on to
    /// the op after it, where a recording slot after it would have run;
    /// `counts` are [`Prefix::counts`].
    fn went_on(&self, counts: &[u64], pc: Pc) -> bool {
        let pc = pc as usize;
        match self.code.ops()[pc] {
            // A call goes on when its callee returns, which enters the
            // block loop at the op after it.
            Op::Call { .. } => self.entries[pc + 1] > 0,
            // Any other op that ran went on: the prefix ends before the
            // op, not after it.
            _ => counts[pc] > 0,
        }
    }
}

/// The recording slot of instruction `id` in `code`, if `code` records it.
fn slot_of(code: &Code, id: InstrId) -> Option<Pc> {
    let slot = code.pc_of(id)? + 1;
    code.is_recording(slot).then_some(slot)
}

/// A prefix's sink events. Branch outcomes are packed one bit each and
/// replay 64 at a time; the counts are only searched, once per quantum
/// boundary.
#[derive(Debug, Default, PartialEq)]
struct PrefixEvents {
    /// Each event's instruction count, its own instruction included.
    at: Vec<u32>,
    /// The outcome of each branch, in turn: bit `i % 64` of word `i / 64`.
    taken: Vec<u64>,
    /// The calls and returns among the events, in order.
    marks: Vec<Mark>,
    /// Call arguments and return values, in order.
    values: Vec<u64>,
}

/// A call or a return of a prefix: the events between two of them are
/// all branches.
#[derive(Debug, PartialEq)]
struct Mark {
    /// Its index among all the events.
    event: u32,
    func: FuncId,
    /// How many of [`PrefixEvents::values`] it takes: the call's
    /// arguments, or the return's one value.
    values: u32,
    call: bool,
}

/// The sink of a warm-start capture.
#[derive(Debug)]
struct Recorder {
    at: u32,
    events: PrefixEvents,
    /// [`Prefix::entries`].
    entries: Vec<u32>,
    /// The pc the block loop last entered the code at: a stack
    /// allocation is an op of its block.
    entered: Pc,
    /// The live stack objects by address: size and an entry pc of the
    /// allocating op's block. A symbolic executor registers each with at
    /// least one byte, so even an empty one stays until a release pops
    /// the stack below it.
    stack: BTreeMap<u64, (u64, Pc)>,
    /// Everything of [`Allocations`] but the stack.
    objects: Allocations,
}

impl Recorder {
    fn new(code: &Code) -> Recorder {
        Recorder {
            at: 0,
            events: PrefixEvents::default(),
            entries: vec![0; code.ops().len()],
            entered: 0,
            stack: BTreeMap::new(),
            objects: Allocations::default(),
        }
    }

    fn mark(&mut self, call: bool, func: FuncId, values: &[u64]) {
        let e = &mut self.events;
        e.marks.push(Mark {
            event: e.at.len() as u32,
            func,
            values: values.len() as u32,
            call,
        });
        e.at.push(self.at);
        e.values.extend_from_slice(values);
    }
}

impl TraceSink for Recorder {
    const RECORDS_WARM_START: bool = true;

    fn at(&mut self, icount: u64) {
        self.at = icount as u32;
    }

    fn enter(&mut self, pc: u32) {
        self.entries[pc as usize] += 1;
        self.entered = pc;
    }

    fn memory(&mut self, event: MemEvent) {
        let o = &mut self.objects;
        match event {
            MemEvent::StackAlloc { base, size } => {
                self.stack.insert(base, (size, self.entered));
            }
            MemEvent::StackRelease { to, top } => {
                if top > to {
                    let popped = self.stack.split_off(&to);
                    self.stack
                        .extend(popped.into_iter().filter(|&(base, _)| base >= top));
                }
            }
            MemEvent::HeapAlloc { base, size } => {
                o.heap_requests += 1;
                if base != 0 {
                    o.heap.push(HeapObject {
                        base,
                        size,
                        request: o.heap_requests,
                    });
                }
            }
            MemEvent::HeapFree { base } => o.freed.push(base),
        }
    }

    fn cond_branch(&mut self, taken: bool) {
        let e = &mut self.events;
        // Every event that is not a call or a return is a branch.
        let branch = e.at.len() - e.marks.len();
        if branch.is_multiple_of(64) {
            e.taken.push(0);
        }
        *e.taken.last_mut().expect("a word") |= u64::from(taken) << (branch % 64);
        e.at.push(self.at);
    }

    fn call_args(&mut self, func: FuncId, args: &[u64]) {
        self.mark(true, func, args);
    }

    fn ret_value(&mut self, func: FuncId, value: u64) {
        self.mark(false, func, &[value]);
    }
}

/// How many of the ascending counts `at` are at most `icount`, searched
/// from the front: one quantum's events lie close to it.
fn count_up_to(at: &[u32], icount: u64) -> usize {
    let (mut done, mut step) = (0, 1);
    while done + step <= at.len() && u64::from(at[done + step - 1]) <= icount {
        done += step;
        step *= 2;
    }
    let end = (done + step).min(at.len());
    done + at[done..end].partition_point(|&a| u64::from(a) <= icount)
}

/// A replay of a prefix's events: how many of each list it has sent.
#[derive(Default)]
struct Replay {
    event: usize,
    mark: usize,
    value: usize,
}

impl Replay {
    /// Replays into `sink` the events of `events` counted up to `icount`.
    fn until(&mut self, events: &PrefixEvents, icount: u64, sink: &mut impl TraceSink) {
        let end = self.event + count_up_to(&events.at[self.event..], icount);
        while self.event < end {
            let mark = events.marks.get(self.mark);
            let next_mark = mark.map_or(usize::MAX, |m| m.event as usize);
            if next_mark != self.event {
                // Branches, up to the next call or return.
                let n = next_mark.min(end) - self.event;
                replay_branches(&events.taken, self.event - self.mark, n, sink);
                self.event += n;
                continue;
            }
            let m = mark.expect("a mark at this event");
            let values = &events.values[self.value..][..m.values as usize];
            if m.call {
                sink.call(m.func);
                sink.call_args(m.func, values);
            } else {
                sink.ret();
                sink.ret_value(m.func, values[0]);
            }
            self.event += 1;
            self.mark += 1;
            self.value += values.len();
        }
    }
}

/// Replays branch outcomes `from..from + n` of `taken` into `sink`, up to
/// a word at a time.
fn replay_branches(taken: &[u64], mut from: usize, mut n: usize, sink: &mut impl TraceSink) {
    while n > 0 {
        let (word, bit) = (from / 64, from % 64);
        let k = n.min(64 - bit);
        let bits = (taken[word] >> bit) & (u64::MAX >> (64 - k));
        sink.cond_branches(bits, k as u32);
        from += k;
        n -= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::error::FailureKind;
    use crate::trace::{Event, VecSink};

    fn run_src(src: &str, inputs: &[(u32, Vec<u8>)]) -> RunReport<NullSink> {
        let p = compile(src).unwrap();
        let mut env = Env::new();
        for (s, b) in inputs {
            env.push_input(*s, b);
        }
        Machine::new(&p, env).run()
    }

    #[test]
    fn arithmetic_and_print() {
        let r = run_src("fn main() { let x: u32 = 6 * 7; print(x); }", &[]);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn loops_and_calls() {
        let r = run_src(
            r#"
            fn fib(n: u32) -> u32 {
                if n < 2 { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { print(fib(10)); }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![55]);
    }

    #[test]
    fn globals_and_arrays() {
        let r = run_src(
            r#"
            global V: [u32; 8];
            global sum: u32 = 5;
            fn main() {
                for i: u32 = 0; i < 8; i = i + 1 { V[i] = i * i; }
                for i: u32 = 0; i < 8; i = i + 1 { sum = sum + V[i]; }
                print(sum);
            }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![145]); // 5 + sum of squares 0..7 (140)
    }

    #[test]
    fn inputs_feed_execution() {
        let r = run_src(
            "fn main() { let a: u32 = input_u32(0); let b: u32 = input_u32(0); print(a + b); }",
            &[(0, [3u32.to_le_bytes(), 4u32.to_le_bytes()].concat())],
        );
        assert_eq!(r.output, vec![7]);
    }

    #[test]
    fn abort_fails_with_stack() {
        let r = run_src(
            "fn inner() { abort(\"bad\"); }\nfn outer() { inner(); }\nfn main() { outer(); }",
            &[],
        );
        let RunOutcome::Failure(f) = r.outcome else {
            panic!("expected failure")
        };
        assert_eq!(f.fault.kind(), FailureKind::Abort);
        assert_eq!(f.call_stack.len(), 3);
    }

    #[test]
    fn null_deref_detected() {
        let r = run_src("fn main() { let v: u32 = load32(0); print(v); }", &[]);
        let RunOutcome::Failure(f) = r.outcome else {
            panic!()
        };
        assert_eq!(f.fault.kind(), FailureKind::NullDeref);
    }

    #[test]
    fn use_after_free_detected() {
        let r = run_src(
            "fn main() { let p: u64 = alloc(16); free(p); let v: u8 = load8(p); print(v); }",
            &[],
        );
        let RunOutcome::Failure(f) = r.outcome else {
            panic!()
        };
        assert!(matches!(f.fault, RuntimeFault::UseAfterFree { .. }));
    }

    #[test]
    fn stack_overrun_is_latent() {
        // Writing past buf corrupts sentinel in the same frame; no fault at
        // the overflow itself, but the corruption is visible.
        let r = run_src(
            r#"
            fn main() {
                var buf: [u8; 16];
                var sentinel: [u8; 16];
                buf[20] = 7;
                print(sentinel[4]);
            }
            "#,
            &[],
        );
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, vec![7]);
    }

    #[test]
    fn branch_trace_is_recorded() {
        let p = compile(
            "fn main() { let x: u32 = input_u32(0); if x < 10 { print(1); } else { print(2); } }",
        )
        .unwrap();
        let mut env = Env::new();
        env.push_input(0, &5u32.to_le_bytes());
        let r = Machine::with_sink(&p, env, VecSink::new()).run();
        assert_eq!(r.sink.branches(), vec![true]);
        assert_eq!(r.output, vec![1]);
    }

    #[test]
    fn ptwrite_reaches_sink() {
        let p = compile("fn main() { let x: u32 = 3; ptwrite(x + 1); }").unwrap();
        let r = Machine::with_sink(&p, Env::new(), VecSink::new()).run();
        assert_eq!(r.sink.ptwrites(), vec![4]);
    }

    #[test]
    fn threads_join_and_share_memory() {
        let r = run_src(
            r#"
            global counter: u32;
            fn worker(n: u32) {
                for i: u32 = 0; i < n; i = i + 1 {
                    lock(1);
                    counter = counter + 1;
                    unlock(1);
                }
            }
            fn main() {
                let t1: u64 = spawn worker(100);
                let t2: u64 = spawn worker(100);
                join(t1);
                join(t2);
                print(counter);
            }
            "#,
            &[],
        );
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, vec![200]);
    }

    #[test]
    fn unsynchronized_race_can_lose_updates() {
        let src = r#"
            global counter: u32;
            fn worker(n: u32) {
                for i: u32 = 0; i < n; i = i + 1 {
                    let c: u32 = counter;
                    counter = c + 1;
                }
            }
            fn main() {
                let t1: u64 = spawn worker(2000);
                let t2: u64 = spawn worker(2000);
                join(t1);
                join(t2);
                print(counter);
            }
        "#;
        let p = compile(src).unwrap();
        let lost = (0..8).any(|seed| {
            let r = Machine::new(&p, Env::new())
                .with_sched(SchedConfig {
                    quantum: 37,
                    seed,
                    max_instrs: 10_000_000,
                })
                .run();
            r.output[0] < 4000
        });
        assert!(lost, "some seed should lose an update");
    }

    #[test]
    fn deadlock_detected() {
        let r = run_src(
            r#"
            fn a() { lock(1); lock(2); unlock(2); unlock(1); }
            fn b() { lock(2); lock(1); unlock(1); unlock(2); }
            fn main() {
                let t1: u64 = spawn a();
                let t2: u64 = spawn b();
                join(t1);
                join(t2);
            }
            "#,
            &[],
        );
        // With default quantum the two critical sections may or may not
        // interleave; accept either a deadlock or completion, but never a
        // wrong answer.
        match r.outcome {
            RunOutcome::Completed => {}
            RunOutcome::Failure(f) => assert!(matches!(f.fault, RuntimeFault::Deadlock)),
        }
    }

    #[test]
    fn hang_budget_trips() {
        let p = compile("fn main() { let i: u32 = 0; while true { i = i + 1; } }").unwrap();
        let r = Machine::new(&p, Env::new())
            .with_sched(SchedConfig {
                quantum: 100,
                seed: 1,
                max_instrs: 10_000,
            })
            .run();
        let RunOutcome::Failure(f) = r.outcome else {
            panic!()
        };
        assert!(matches!(f.fault, RuntimeFault::Hang));
        // The budget is exact: the hang is raised before the instruction
        // that would exceed it, at the spinning thread's next site.
        assert_eq!(r.instr_count, 10_000);
        assert_eq!(f.tid, 0);
        assert_eq!(f.at.to_string(), "f0.b2.i1");
    }

    /// A loop whose header and body blocks both start fused pairs, with a
    /// call in the middle of the body, so a run can stop anywhere in a
    /// block, inside a pair, or in a callee.
    const LOOP: &str = r#"
        fn mix(x: u64) -> u64 { return x ^ (x >> 29); }
        fn main() {
            let h: u64 = 7;
            for i: u64 = 0; i < 40; i = i + 1 {
                h = (h ^ i) * 1099511628211;
                h = mix(h) + i;
            }
            print(h);
        }
    "#;

    /// The pcs a run of [`LOOP`] executes, in order, walked from its flat
    /// code without the interpreter: the loop test is its one branch on a
    /// register, and it is taken 40 times.
    fn loop_pcs(code: &Code) -> Vec<Pc> {
        let (mut pcs, mut returns, mut test) = (Vec::new(), Vec::new(), None);
        let mut pc = code.entry();
        loop {
            pcs.push(pc);
            pc = match code.ops()[pc as usize] {
                Op::Jump { to } => to,
                Op::Branch {
                    cond: Operand::Imm(c),
                    then_pc,
                    else_pc,
                } => {
                    if c != 0 {
                        then_pc
                    } else {
                        else_pc
                    }
                }
                Op::Branch {
                    then_pc, else_pc, ..
                } => {
                    assert_eq!(*test.get_or_insert(pc), pc, "one loop test");
                    let taken = pcs.iter().filter(|&&p| p == pc).count() <= 40;
                    if taken {
                        then_pc
                    } else {
                        else_pc
                    }
                }
                Op::Call { site } => {
                    returns.push(pc + 1);
                    code.call_site(site).entry
                }
                Op::Return { .. } => match returns.pop() {
                    Some(after_call) => after_call,
                    None => return pcs,
                },
                _ => pc + 1,
            };
        }
    }

    #[test]
    fn budget_trips_on_exactly_the_op_it_ends_at() {
        let p = compile(LOOP).unwrap();
        let code = p.code();
        let pairs: Vec<Op> = code
            .fast_ops()
            .iter()
            .filter(|op| op.split().is_some())
            .copied()
            .collect();
        assert!(
            pairs.iter().any(|op| matches!(op, Op::UltRIBranch(_)))
                && pairs.iter().any(|op| matches!(op, Op::MulRIMov(_)))
                && pairs.iter().any(|op| matches!(op, Op::AddRRMov(_))),
            "{pairs:?}"
        );
        let pcs = loop_pcs(code);
        let full = Machine::new(&p, Env::new()).run();
        assert_eq!(full.outcome, RunOutcome::Completed);
        assert_eq!(full.instr_count, pcs.len() as u64);
        // Every budget short of the whole run: each offset of both loop
        // blocks, of the callee, and between the ops of every pair.
        for (k, &pc) in pcs.iter().enumerate() {
            let r = Machine::new(&p, Env::new())
                .with_sched(SchedConfig {
                    max_instrs: k as u64,
                    ..SchedConfig::default()
                })
                .run();
            let RunOutcome::Failure(f) = r.outcome else {
                panic!("budget {k}: expected a hang, got {:?}", r.outcome)
            };
            assert_eq!(f.fault, RuntimeFault::Hang, "budget {k}");
            assert_eq!(r.instr_count, k as u64, "budget {k}");
            assert_eq!(f.at, code.id_of(pc), "budget {k}");
        }
    }

    #[test]
    fn every_quantum_ends_on_its_exact_length() {
        let p = compile(LOOP).unwrap();
        let reference = Machine::new(&p, Env::new())
            .with_sched(SchedConfig {
                quantum: 1000,
                ..SchedConfig::default()
            })
            .run();
        for quantum in 2..=40 {
            let sched = SchedConfig {
                quantum,
                seed: quantum,
                max_instrs: 1 << 20,
            };
            let r = Machine::with_sink(&p, Env::new(), VecSink::new())
                .with_sched(sched)
                .run();
            assert_eq!(r.outcome, reference.outcome, "quantum {quantum}");
            assert_eq!(r.output, reference.output, "quantum {quantum}");
            assert_eq!(r.instr_count, reference.instr_count, "quantum {quantum}");
            let resumes: Vec<u64> = r
                .sink
                .events
                .iter()
                .filter_map(|e| match *e {
                    Event::ThreadResume { tid: 0, tsc } => Some(tsc),
                    _ => None,
                })
                .collect();
            // A machine with the same schedule draws the same lengths.
            let mut lengths = Machine::new(&p, Env::new()).with_sched(sched);
            assert_eq!(resumes[0], 0);
            for w in resumes.windows(2) {
                assert_eq!(w[1], w[0] + lengths.next_quantum(), "quantum {quantum}");
            }
            let last = *resumes.last().unwrap();
            assert!(r.instr_count > last, "quantum {quantum}");
            assert!(
                r.instr_count <= last + lengths.next_quantum(),
                "quantum {quantum}"
            );
        }
    }

    #[test]
    fn hang_on_a_quantum_boundary_lands_on_the_next_thread() {
        let p = compile(
            r#"
            fn spin() { let i: u64 = 0; while true { i = i + 1; } }
            fn main() {
                let t: u64 = spawn spin();
                let j: u64 = 0;
                while true { j = j + 2; }
            }
            "#,
        )
        .unwrap();
        let sched = |max_instrs| SchedConfig {
            quantum: 100,
            seed: 3,
            max_instrs,
        };
        // Find the second quantum boundary that hands the CPU from main to
        // the spawned thread, so the hang lands mid-loop.
        let probe = Machine::with_sink(&p, Env::new(), VecSink::new())
            .with_sched(sched(5_000))
            .run();
        let boundary = probe
            .sink
            .events
            .iter()
            .filter_map(|e| match e {
                Event::ThreadResume { tid: 1, tsc } => Some(*tsc),
                _ => None,
            })
            .nth(1)
            .expect("the spawned thread gets scheduled");
        assert_eq!(boundary, 274);
        // A budget ending exactly there: main's quantum completes, the
        // scheduler resumes thread 1, and the hang is attributed to it, at
        // its own paused site, before it executes anything.
        let r = Machine::with_sink(&p, Env::new(), VecSink::new())
            .with_sched(sched(boundary))
            .run();
        let RunOutcome::Failure(f) = r.outcome else {
            panic!("expected a hang, got {:?}", r.outcome)
        };
        assert!(matches!(f.fault, RuntimeFault::Hang));
        assert_eq!(r.instr_count, boundary);
        assert_eq!(f.tid, 1);
        assert_eq!(f.at.to_string(), "f0.b2.i1");
        assert_eq!(
            r.sink.events.last(),
            Some(&Event::ThreadResume {
                tid: 1,
                tsc: boundary
            })
        );
    }

    #[test]
    fn index_wrapping_the_address_space_faults_unmapped() {
        // A[i] loads 8 bytes at GLOBAL_BASE + 8 * i = 2^64 - 8; the access
        // end wraps to 0 and must not slip past the bounds check.
        let r = run_src(
            "global A: [u64; 4];\nfn main() { let i: u64 = input_u64(0); print(A[i]); }",
            &[(0, 0x1FFF_FFFF_FDFF_FFFFu64.to_le_bytes().to_vec())],
        );
        let RunOutcome::Failure(f) = r.outcome else {
            panic!("expected a fault, got {:?}", r.outcome)
        };
        assert_eq!(
            f.fault,
            RuntimeFault::Unmapped {
                addr: 0xFFFF_FFFF_FFFF_FFF8
            }
        );
    }

    #[test]
    fn allocation_past_the_heap_returns_null() {
        // `alloc` of an input-controlled size the heap cannot hold returns
        // null, as `malloc` does, so the store through it faults: it does
        // not abort the process, wrap to a bogus base or map past the heap.
        for size in [1u64 << 40, u64::MAX, 768 << 20] {
            let r = run_src(
                "fn main() { let p: u64 = alloc(input_u64(0)); store8(p, 1); }",
                &[(0, size.to_le_bytes().to_vec())],
            );
            let RunOutcome::Failure(f) = r.outcome else {
                panic!("{size:#x}: expected a fault, got {:?}", r.outcome)
            };
            assert_eq!(f.fault, RuntimeFault::NullDeref { addr: 0 }, "{size:#x}");
            assert_eq!(r.mem.mapped_bytes(), 0, "{size:#x}");
        }
    }

    #[test]
    fn input_exhaustion_faults() {
        let r = run_src("fn main() { let a: u32 = input_u32(0); print(a); }", &[]);
        let RunOutcome::Failure(f) = r.outcome else {
            panic!()
        };
        assert!(matches!(f.fault, RuntimeFault::InputExhausted { .. }));
    }

    #[test]
    fn clock_builtin_reads_env_clock() {
        let p = compile("fn main() { print(clock()); print(clock()); }").unwrap();
        let mut env = Env::new();
        env.set_clock(100, 5);
        let r = Machine::new(&p, env).run();
        assert_eq!(r.output, vec![100, 105]);
    }

    #[test]
    fn nested_calls_restore_stack_frames() {
        let r = run_src(
            r#"
            fn leaf(x: u32) -> u32 {
                var buf: [u32; 4];
                buf[0] = x;
                buf[1] = x * 2;
                return buf[0] + buf[1];
            }
            fn mid(x: u32) -> u32 {
                var tmp: [u32; 2];
                tmp[0] = leaf(x);
                tmp[1] = leaf(x + 1);
                return tmp[0] + tmp[1];
            }
            fn main() { print(mid(10)); }
            "#,
            &[],
        );
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.output, vec![30 + 33]);
    }

    #[test]
    fn instrumented_ptwrite_order_follows_execution() {
        let p = compile(
            r#"
            fn main() {
                for i: u32 = 0; i < 3; i = i + 1 {
                    ptwrite(i * 10);
                }
            }
            "#,
        )
        .unwrap();
        let r = Machine::with_sink(&p, Env::new(), VecSink::new()).run();
        assert_eq!(r.sink.ptwrites(), vec![0, 10, 20]);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let src = r#"
            global V: [u32; 32];
            fn main() {
                for i: u32 = 0; i < 32; i = i + 1 { V[i] = i * 3; }
                let x: u32 = input_u32(0);
                print(V[x % 32]);
                print(clock());
            }
        "#;
        let p = compile(src).unwrap();
        let mk_env = || {
            let mut e = Env::new();
            e.push_input(0, &9u32.to_le_bytes());
            e
        };
        let r1 = Machine::with_sink(&p, mk_env(), VecSink::new()).run();
        let r2 = Machine::with_sink(&p, mk_env(), VecSink::new()).run();
        assert_eq!(r1.output, r2.output);
        assert_eq!(r1.sink.events, r2.sink.events);
        assert_eq!(r1.instr_count, r2.instr_count);
    }
}
