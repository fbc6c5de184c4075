//! The concrete interpreter: runs IR programs with cooperative threads,
//! reporting control-flow and data events to a [`TraceSink`].
//!
//! Scheduling is deterministic given a [`SchedConfig`]: threads run
//! round-robin in quanta whose lengths are derived from a seeded xorshift,
//! so concurrency bugs manifest (or not) reproducibly per seed — the
//! substrate for the paper's coarse-interleaving discussion (§3.4).

use crate::code::{CallSite, Code, Op, Pc};
use crate::env::Env;
use crate::error::{Failure, RuntimeFault};
use crate::ir::*;
use crate::mem::Memory;
use crate::trace::{NullSink, TraceSink};
use std::collections::{HashMap, VecDeque};

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

#[derive(Debug)]
struct Frame {
    pc: Pc,
    /// This frame's first register in the thread's register stack.
    base: usize,
    ret_dst: Option<Reg>,
    stack_mark: u64,
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

/// Reads `op` against a frame's registers.
#[inline(always)]
fn get(regs: &[u64], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
    }
}

/// An IR interpreter with a pluggable trace sink.
#[derive(Debug)]
pub struct Machine<'p, S = NullSink> {
    code: &'p Code,
    entry: FuncId,
    env: Env,
    mem: Memory,
    threads: Vec<Thread>,
    run_queue: VecDeque<usize>,
    lock_owner: HashMap<u64, u64>,
    icount: u64,
    output: Vec<u64>,
    next_tid: u64,
    sched: SchedConfig,
    rng: u64,
    sink: S,
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
            env,
            mem,
            threads: vec![main],
            run_queue: VecDeque::from([0]),
            lock_owner: HashMap::new(),
            icount: 0,
            output: Vec::new(),
            next_tid: 1,
            sched: SchedConfig::default(),
            rng: SchedConfig::default().seed | 1,
            sink,
        }
    }

    /// Overrides the scheduler configuration.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self.rng = sched.seed | 1;
        self
    }

    fn next_quantum(&mut self) -> u64 {
        // xorshift64* jitter in [quantum/2, 3*quantum/2).
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let q = self.sched.quantum.max(2);
        q / 2 + (self.rng % q)
    }

    /// Runs to completion or failure, consuming the machine.
    pub fn run(mut self) -> RunReport<S> {
        let outcome = self.run_loop();
        RunReport {
            outcome,
            output: self.output,
            instr_count: self.icount,
            mem: self.mem,
            sink: self.sink,
        }
    }

    fn run_loop(&mut self) -> RunOutcome {
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
            self.sink.thread_resume(tid, self.icount);
            let quantum = self.next_quantum();
            let deadline = self.icount + quantum;
            // The instruction budget folds into the quantum: the slice
            // stops at whichever comes first. A quantum that ends exactly
            // on the budget still ends normally, so the hang is raised on
            // the next thread scheduled, before it executes anything.
            match self.run_slice(t, deadline.min(self.sched.max_instrs)) {
                StepResult::Continue if self.icount < deadline => {
                    return RunOutcome::Failure(self.failure_at(t, RuntimeFault::Hang));
                }
                StepResult::Continue | StepResult::Blocked | StepResult::ThreadDone => {}
                StepResult::Fault(f) => return RunOutcome::Failure(self.failure_at(t, f)),
            }
            if self.threads[t].state == ThreadState::Runnable {
                self.run_queue.push_back(t);
            }
        }
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
    #[allow(clippy::too_many_lines)]
    fn run_slice(&mut self, t: usize, stop: u64) -> StepResult {
        let code = self.code;
        let ops = code.ops();
        loop {
            let thread = &mut self.threads[t];
            let tid = thread.tid;
            let frame = thread.frames.last_mut().expect("live frame");
            let regs = &mut thread.regs[frame.base..];
            let mut pc = frame.pc as usize;
            let mut icount = self.icount;
            let exit = loop {
                if icount >= stop {
                    break None;
                }
                icount += 1;
                let done: Result<(), RuntimeFault> = match ops[pc] {
                    Op::Const { dst, value } => {
                        regs[dst.0 as usize] = value;
                        Ok(())
                    }
                    Op::Mov { dst, src } => {
                        regs[dst.0 as usize] = regs[src.0 as usize];
                        Ok(())
                    }
                    Op::AddRR { dst, a, b } => {
                        regs[dst.0 as usize] = regs[a.0 as usize].wrapping_add(regs[b.0 as usize]);
                        Ok(())
                    }
                    Op::AddRI { dst, a, imm } => {
                        regs[dst.0 as usize] = regs[a.0 as usize].wrapping_add(imm);
                        Ok(())
                    }
                    Op::SubRR { dst, a, b } => {
                        regs[dst.0 as usize] = regs[a.0 as usize].wrapping_sub(regs[b.0 as usize]);
                        Ok(())
                    }
                    Op::SubRI { dst, a, imm } => {
                        regs[dst.0 as usize] = regs[a.0 as usize].wrapping_sub(imm);
                        Ok(())
                    }
                    Op::MulRR { dst, a, b } => {
                        regs[dst.0 as usize] = regs[a.0 as usize].wrapping_mul(regs[b.0 as usize]);
                        Ok(())
                    }
                    Op::MulRI { dst, a, imm } => {
                        regs[dst.0 as usize] = regs[a.0 as usize].wrapping_mul(imm);
                        Ok(())
                    }
                    Op::AndRR { dst, a, b } => {
                        regs[dst.0 as usize] = regs[a.0 as usize] & regs[b.0 as usize];
                        Ok(())
                    }
                    Op::AndRI { dst, a, imm } => {
                        regs[dst.0 as usize] = regs[a.0 as usize] & imm;
                        Ok(())
                    }
                    Op::OrRR { dst, a, b } => {
                        regs[dst.0 as usize] = regs[a.0 as usize] | regs[b.0 as usize];
                        Ok(())
                    }
                    Op::OrRI { dst, a, imm } => {
                        regs[dst.0 as usize] = regs[a.0 as usize] | imm;
                        Ok(())
                    }
                    Op::XorRR { dst, a, b } => {
                        regs[dst.0 as usize] = regs[a.0 as usize] ^ regs[b.0 as usize];
                        Ok(())
                    }
                    Op::XorRI { dst, a, imm } => {
                        regs[dst.0 as usize] = regs[a.0 as usize] ^ imm;
                        Ok(())
                    }
                    // `wrapping_*` shifts take the amount modulo 64, the IR's
                    // shift semantics at 64 bits.
                    Op::ShlRR { dst, a, b } => {
                        regs[dst.0 as usize] =
                            regs[a.0 as usize].wrapping_shl(regs[b.0 as usize] as u32);
                        Ok(())
                    }
                    Op::ShlRI { dst, a, imm } => {
                        regs[dst.0 as usize] = regs[a.0 as usize].wrapping_shl(imm as u32);
                        Ok(())
                    }
                    Op::LShrRR { dst, a, b } => {
                        regs[dst.0 as usize] =
                            regs[a.0 as usize].wrapping_shr(regs[b.0 as usize] as u32);
                        Ok(())
                    }
                    Op::LShrRI { dst, a, imm } => {
                        regs[dst.0 as usize] = regs[a.0 as usize].wrapping_shr(imm as u32);
                        Ok(())
                    }
                    Op::AShrRR { dst, a, b } => {
                        regs[dst.0 as usize] = (regs[a.0 as usize] as i64)
                            .wrapping_shr(regs[b.0 as usize] as u32)
                            as u64;
                        Ok(())
                    }
                    Op::AShrRI { dst, a, imm } => {
                        regs[dst.0 as usize] =
                            (regs[a.0 as usize] as i64).wrapping_shr(imm as u32) as u64;
                        Ok(())
                    }
                    Op::EqRR { dst, a, b } => {
                        regs[dst.0 as usize] = u64::from(regs[a.0 as usize] == regs[b.0 as usize]);
                        Ok(())
                    }
                    Op::EqRI { dst, a, imm } => {
                        regs[dst.0 as usize] = u64::from(regs[a.0 as usize] == imm);
                        Ok(())
                    }
                    Op::NeRR { dst, a, b } => {
                        regs[dst.0 as usize] = u64::from(regs[a.0 as usize] != regs[b.0 as usize]);
                        Ok(())
                    }
                    Op::NeRI { dst, a, imm } => {
                        regs[dst.0 as usize] = u64::from(regs[a.0 as usize] != imm);
                        Ok(())
                    }
                    Op::UltRR { dst, a, b } => {
                        regs[dst.0 as usize] = u64::from(regs[a.0 as usize] < regs[b.0 as usize]);
                        Ok(())
                    }
                    Op::UltRI { dst, a, imm } => {
                        regs[dst.0 as usize] = u64::from(regs[a.0 as usize] < imm);
                        Ok(())
                    }
                    Op::UleRR { dst, a, b } => {
                        regs[dst.0 as usize] = u64::from(regs[a.0 as usize] <= regs[b.0 as usize]);
                        Ok(())
                    }
                    Op::UleRI { dst, a, imm } => {
                        regs[dst.0 as usize] = u64::from(regs[a.0 as usize] <= imm);
                        Ok(())
                    }
                    Op::SltRR { dst, a, b } => {
                        regs[dst.0 as usize] =
                            u64::from((regs[a.0 as usize] as i64) < (regs[b.0 as usize] as i64));
                        Ok(())
                    }
                    Op::SltRI { dst, a, imm } => {
                        regs[dst.0 as usize] =
                            u64::from((regs[a.0 as usize] as i64) < (imm as i64));
                        Ok(())
                    }
                    Op::SleRR { dst, a, b } => {
                        regs[dst.0 as usize] =
                            u64::from((regs[a.0 as usize] as i64) <= (regs[b.0 as usize] as i64));
                        Ok(())
                    }
                    Op::SleRI { dst, a, imm } => {
                        regs[dst.0 as usize] =
                            u64::from((regs[a.0 as usize] as i64) <= (imm as i64));
                        Ok(())
                    }
                    Op::Bin {
                        dst,
                        op,
                        a,
                        b,
                        width,
                    } => op
                        .eval(width, get(regs, a), get(regs, b))
                        .ok_or(RuntimeFault::DivByZero)
                        .map(|r| regs[dst.0 as usize] = r),
                    Op::Cmp {
                        dst,
                        pred,
                        a,
                        b,
                        width,
                    } => {
                        regs[dst.0 as usize] =
                            u64::from(pred.eval(width, get(regs, a), get(regs, b)));
                        Ok(())
                    }
                    Op::Un { dst, op, a, width } => {
                        regs[dst.0 as usize] = op.eval(width, get(regs, a));
                        Ok(())
                    }
                    Op::Cast { dst, a, from } => {
                        regs[dst.0 as usize] = from.trunc(get(regs, a));
                        Ok(())
                    }
                    Op::Load { dst, addr, width } => self
                        .mem
                        .load(get(regs, addr), width)
                        .map(|v| regs[dst.0 as usize] = v),
                    Op::Store { addr, value, width } => {
                        self.mem.store(get(regs, addr), width, get(regs, value))
                    }
                    Op::StackAlloc { dst, size } => {
                        regs[dst.0 as usize] = self.mem.stack_alloc(tid, size);
                        Ok(())
                    }
                    Op::Alloc { dst, size } => {
                        regs[dst.0 as usize] = self.mem.heap_alloc(get(regs, size));
                        Ok(())
                    }
                    Op::Free { addr } => self.mem.heap_free(get(regs, addr)),
                    Op::Input { dst, source, width } => {
                        self.env.read_input(source, width).map(|(v, event)| {
                            self.sink.input(&event);
                            regs[dst.0 as usize] = v;
                        })
                    }
                    Op::Clock { dst } => {
                        let v = self.env.read_clock();
                        self.sink.clock_read(v);
                        regs[dst.0 as usize] = v;
                        Ok(())
                    }
                    Op::PtWrite { value } => {
                        self.sink.ptwrite(get(regs, value));
                        Ok(())
                    }
                    Op::Print { value } => {
                        self.output.push(get(regs, value));
                        Ok(())
                    }
                    Op::Assert { cond, message } => {
                        if get(regs, cond) == 0 {
                            Err(RuntimeFault::AssertFailed {
                                message: code.message(message).to_string(),
                            })
                        } else {
                            Ok(())
                        }
                    }
                    Op::Abort { message } => Err(RuntimeFault::Abort {
                        message: code.message(message).to_string(),
                    }),
                    Op::Jump { to } => {
                        pc = to as usize;
                        continue;
                    }
                    Op::Branch {
                        cond,
                        then_pc,
                        else_pc,
                    } => {
                        let taken = get(regs, cond) != 0;
                        self.sink.cond_branch(taken);
                        pc = if taken { then_pc } else { else_pc } as usize;
                        continue;
                    }
                    op @ (Op::Call { .. }
                    | Op::Spawn { .. }
                    | Op::Join { .. }
                    | Op::Lock { .. }
                    | Op::Unlock { .. }
                    | Op::Return { .. }) => break Some(Ok(op)),
                };
                match done {
                    Ok(()) => pc += 1,
                    Err(f) => break Some(Err(f)),
                }
            };
            // The pc stays on a faulting or frame-changing instruction.
            frame.pc = pc as Pc;
            self.icount = icount;
            let flow = match exit {
                None => return StepResult::Continue,
                Some(Err(f)) => return StepResult::Fault(f),
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
        self.sink.ret();
        self.sink
            .ret_value(self.code.id_of(thread.frame().pc).func, value);
        let frame = thread.frames.pop().expect("live frame");
        self.mem.stack_restore(thread.tid, frame.stack_mark);
        thread.regs.truncate(frame.base);
        if let Some(caller) = thread.frames.last_mut() {
            if let Some(dst) = frame.ret_dst {
                thread.regs[caller.base + dst.0 as usize] = value;
            }
            caller.pc += 1; // move past the Call instruction
            StepResult::Continue
        } else {
            self.thread_done(t);
            StepResult::ThreadDone
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
        self.sink.call(site.func);
        self.sink.call_args(site.func, &callee[..site.n_params]);
        let mark = self.mem.stack_watermark(thread.tid);
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
        let mark = self.mem.stack_watermark(tid);
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
        StepResult::Blocked
    }

    fn lock(&mut self, t: usize, lock: Operand) -> StepResult {
        let id = self.threads[t].operand(lock);
        if self.lock_owner.contains_key(&id) {
            self.threads[t].state = ThreadState::BlockedLock(id);
            // The pc is *not* advanced: the lock is re-attempted when the
            // thread is woken by an unlock.
            return StepResult::Blocked;
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

enum StepResult {
    Continue,
    Blocked,
    ThreadDone,
    Fault(RuntimeFault),
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
