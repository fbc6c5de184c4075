//! The concrete interpreter: runs IR programs with cooperative threads,
//! reporting control-flow and data events to a [`TraceSink`].
//!
//! Scheduling is deterministic given a [`SchedConfig`]: threads run
//! round-robin in quanta whose lengths are derived from a seeded xorshift,
//! so concurrency bugs manifest (or not) reproducibly per seed — the
//! substrate for the paper's coarse-interleaving discussion (§3.4).

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
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<u64>,
    ret_dst: Option<Reg>,
    stack_mark: u64,
}

impl Frame {
    #[inline]
    fn get(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    #[inline]
    fn set(&mut self, r: Reg, v: u64) {
        self.regs[r.0 as usize] = v;
    }
}

#[derive(Debug)]
struct Thread {
    tid: u64,
    frames: Vec<Frame>,
    state: ThreadState,
}

/// An IR interpreter with a pluggable trace sink.
#[derive(Debug)]
pub struct Machine<'p, S = NullSink> {
    program: &'p Program,
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
        let mem = Memory::new(program);
        let main = Thread {
            tid: 0,
            frames: vec![Frame {
                func: program.entry,
                block: BlockId(0),
                ip: 0,
                regs: vec![0; program.func(program.entry).n_regs],
                ret_dst: None,
                stack_mark: mem.stack_watermark(0),
            }],
            state: ThreadState::Runnable,
        };
        Machine {
            program,
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
            while self.icount < deadline {
                if self.icount >= self.sched.max_instrs {
                    return RunOutcome::Failure(self.failure_at(t, RuntimeFault::Hang));
                }
                match self.step(t) {
                    StepResult::Continue => {}
                    StepResult::Blocked => break,
                    StepResult::ThreadDone => break,
                    StepResult::Fault(f) => {
                        return RunOutcome::Failure(self.failure_at(t, f));
                    }
                }
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
            .map(|f| {
                let blk = self.program.func(f.func).block(f.block);
                let index = if f.ip < blk.instrs.len() {
                    f.ip
                } else {
                    InstrId::TERMINATOR
                };
                InstrId {
                    func: f.func,
                    block: f.block,
                    index,
                }
            })
            .unwrap_or(InstrId {
                func: self.program.entry,
                block: BlockId(0),
                index: 0,
            });
        Failure {
            fault,
            at,
            call_stack: th.frames.iter().map(|f| f.func).collect(),
            tid: th.tid,
        }
    }

    fn operand(&self, t: usize, op: Operand) -> u64 {
        self.threads[t].frames.last().expect("live frame").get(op)
    }

    fn set_reg(&mut self, t: usize, r: Reg, v: u64) {
        self.threads[t].frames.last_mut().expect("live frame").regs[r.0 as usize] = v;
    }

    fn step(&mut self, t: usize) -> StepResult {
        self.icount += 1;
        let program = self.program;
        let thread = &mut self.threads[t];
        let tid = thread.tid;
        let frame = thread.frames.last_mut().expect("live frame");
        // Borrow from the program, not from `self`: dispatch copies nothing.
        let blk = program.func(frame.func).block(frame.block);
        let Some(instr) = blk.instrs.get(frame.ip) else {
            let func = frame.func;
            let term = blk.term.as_ref().expect("lowering terminates every block");
            return self.terminator(t, func, term);
        };
        // Straight-line instructions touch only the current frame and
        // machine state disjoint from the thread table, so they run on
        // this one frame borrow. Instructions that create, block or wake
        // threads need the whole table and run in their own methods.
        let done: Result<(), RuntimeFault> = match instr {
            Instr::Const { dst, value } => {
                frame.set(*dst, *value);
                Ok(())
            }
            Instr::Bin {
                dst,
                op,
                a,
                b,
                width,
            } => op
                .eval(*width, frame.get(*a), frame.get(*b))
                .ok_or(RuntimeFault::DivByZero)
                .map(|r| frame.set(*dst, r)),
            Instr::Un { dst, op, a, width } => {
                frame.set(*dst, op.eval(*width, frame.get(*a)));
                Ok(())
            }
            Instr::Cmp {
                dst,
                pred,
                a,
                b,
                width,
            } => {
                let r = pred.eval(*width, frame.get(*a), frame.get(*b));
                frame.set(*dst, u64::from(r));
                Ok(())
            }
            Instr::Cast { dst, a, from } => {
                frame.set(*dst, from.trunc(frame.get(*a)));
                Ok(())
            }
            Instr::Load { dst, addr, width } => self
                .mem
                .load(frame.get(*addr), *width)
                .map(|v| frame.set(*dst, v)),
            Instr::Store { addr, value, width } => {
                self.mem.store(frame.get(*addr), *width, frame.get(*value))
            }
            Instr::GlobalAddr { dst, global } => {
                frame.set(*dst, program.globals[global.0 as usize].addr);
                Ok(())
            }
            Instr::StackAlloc { dst, size } => {
                frame.set(*dst, self.mem.stack_alloc(tid, *size));
                Ok(())
            }
            Instr::Alloc { dst, size } => {
                frame.set(*dst, self.mem.heap_alloc(frame.get(*size)));
                Ok(())
            }
            Instr::Free { addr } => self.mem.heap_free(frame.get(*addr)),
            Instr::Input { dst, source, width } => {
                self.env.read_input(*source, *width).map(|(v, event)| {
                    self.sink.input(&event);
                    frame.set(*dst, v);
                })
            }
            Instr::Clock { dst } => {
                let v = self.env.read_clock();
                self.sink.clock_read(v);
                frame.set(*dst, v);
                Ok(())
            }
            Instr::PtWrite { value } => {
                self.sink.ptwrite(frame.get(*value));
                Ok(())
            }
            Instr::Print { value } => {
                self.output.push(frame.get(*value));
                Ok(())
            }
            Instr::Assert { cond, message } => {
                if frame.get(*cond) == 0 {
                    Err(RuntimeFault::AssertFailed {
                        message: message.clone(),
                    })
                } else {
                    Ok(())
                }
            }
            Instr::Abort { message } => Err(RuntimeFault::Abort {
                message: message.clone(),
            }),
            Instr::Call { dst, func, args } => return self.call(t, *dst, *func, args),
            Instr::Spawn { dst, func, args } => return self.spawn(t, *dst, *func, args),
            Instr::Join { tid } => return self.join(t, *tid),
            Instr::Lock { lock } => return self.lock(t, *lock),
            Instr::Unlock { lock } => return self.unlock(t, *lock),
        };
        match done {
            Ok(()) => {
                frame.ip += 1;
                StepResult::Continue
            }
            Err(f) => StepResult::Fault(f),
        }
    }

    fn terminator(&mut self, t: usize, func: FuncId, term: &'p Terminator) -> StepResult {
        match *term {
            Terminator::Jump(b) => {
                let f = self.threads[t].frames.last_mut().expect("live frame");
                f.block = b;
                f.ip = 0;
                StepResult::Continue
            }
            Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            } => {
                let taken = self.operand(t, cond) != 0;
                self.sink.cond_branch(taken);
                let f = self.threads[t].frames.last_mut().expect("live frame");
                f.block = if taken { then_blk } else { else_blk };
                f.ip = 0;
                StepResult::Continue
            }
            Terminator::Return(v) => {
                let value = v.map(|op| self.operand(t, op)).unwrap_or(0);
                self.sink.ret();
                self.sink.ret_value(func, value);
                let tid = self.threads[t].tid;
                let frame = self.threads[t].frames.pop().expect("live frame");
                self.mem.stack_restore(tid, frame.stack_mark);
                if let Some(caller) = self.threads[t].frames.last_mut() {
                    if let Some(dst) = frame.ret_dst {
                        caller.regs[dst.0 as usize] = value;
                    }
                    caller.ip += 1; // move past the Call instruction
                    StepResult::Continue
                } else {
                    self.thread_done(t);
                    StepResult::ThreadDone
                }
            }
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

    fn advance(&mut self, t: usize) {
        self.threads[t].frames.last_mut().expect("live frame").ip += 1;
    }

    /// A fresh register file for `func` with `args` in its parameters.
    fn callee_regs(&self, t: usize, func: FuncId, args: &[Operand]) -> Vec<u64> {
        let mut regs = vec![0u64; self.program.func(func).n_regs];
        for (r, a) in regs.iter_mut().zip(args) {
            *r = self.operand(t, *a);
        }
        regs
    }

    fn call(&mut self, t: usize, dst: Option<Reg>, func: FuncId, args: &[Operand]) -> StepResult {
        let regs = self.callee_regs(t, func, args);
        self.sink.call(func);
        self.sink
            .call_args(func, &regs[..self.program.func(func).n_params]);
        let tid = self.threads[t].tid;
        let mark = self.mem.stack_watermark(tid);
        // The ip stays on the Call until the callee returns.
        self.threads[t].frames.push(Frame {
            func,
            block: BlockId(0),
            ip: 0,
            regs,
            ret_dst: dst,
            stack_mark: mark,
        });
        StepResult::Continue
    }

    fn spawn(&mut self, t: usize, dst: Reg, func: FuncId, args: &[Operand]) -> StepResult {
        let regs = self.callee_regs(t, func, args);
        let tid = self.next_tid;
        self.next_tid += 1;
        let mark = self.mem.stack_watermark(tid);
        self.threads.push(Thread {
            tid,
            frames: vec![Frame {
                func,
                block: BlockId(0),
                ip: 0,
                regs,
                ret_dst: None,
                stack_mark: mark,
            }],
            state: ThreadState::Runnable,
        });
        self.run_queue.push_back(self.threads.len() - 1);
        self.set_reg(t, dst, tid);
        self.advance(t);
        StepResult::Continue
    }

    fn join(&mut self, t: usize, tid: Operand) -> StepResult {
        let target = self.operand(t, tid);
        if target >= self.next_tid {
            return StepResult::Fault(RuntimeFault::BadJoin { tid: target });
        }
        let done = self
            .threads
            .iter()
            .any(|th| th.tid == target && th.state == ThreadState::Done);
        if done {
            self.advance(t);
            return StepResult::Continue;
        }
        self.threads[t].state = ThreadState::BlockedJoin(target);
        // Advance past the Join now: the target's exit is what wakes this
        // thread, so there is nothing to re-check.
        self.advance(t);
        StepResult::Blocked
    }

    fn lock(&mut self, t: usize, lock: Operand) -> StepResult {
        let id = self.operand(t, lock);
        if self.lock_owner.contains_key(&id) {
            self.threads[t].state = ThreadState::BlockedLock(id);
            // ip is *not* advanced: the lock is re-attempted when the
            // thread is woken by an unlock.
            return StepResult::Blocked;
        }
        self.lock_owner.insert(id, self.threads[t].tid);
        self.advance(t);
        StepResult::Continue
    }

    fn unlock(&mut self, t: usize, lock: Operand) -> StepResult {
        let id = self.operand(t, lock);
        self.lock_owner.remove(&id);
        // Wake all waiters; they re-contend for the lock.
        for (i, th) in self.threads.iter_mut().enumerate() {
            if th.state == ThreadState::BlockedLock(id) {
                th.state = ThreadState::Runnable;
                self.run_queue.push_back(i);
            }
        }
        self.advance(t);
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
    use crate::trace::VecSink;

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
