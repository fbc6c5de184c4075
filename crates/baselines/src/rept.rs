//! A REPT-style reverse-execution data-recovery engine.
//!
//! REPT (OSDI'18) reconstructs the data flow of the instructions leading to
//! a crash from (a) an Intel PT control-flow trace and (b) the crash dump's
//! final register and memory state, by walking the instruction sequence
//! backward and inverting instructions where possible. Its documented
//! weakness — the motivation for ER — is that programs overwrite data, so
//! recovery quality collapses as the reconstruction window grows, and its
//! no-alias guesses make some recovered values silently *wrong* (§2.2/§2.3
//! of the ER paper: 15-60% of values incorrect beyond 100K instructions).
//!
//! This module reproduces that behaviour mechanically:
//!
//! * [`ConcreteTape`] re-executes the failing run to obtain the dynamic
//!   instruction sequence (the stand-in for PT trace + binary) *and* the
//!   ground truth used only for grading.
//! * [`ReptAnalysis`] sees only the instruction sequence, the final
//!   registers, and the final memory — never the ground-truth values — and
//!   recovers what it can via backward inversion. With
//!   `assume_no_alias = true` (REPT's best-effort mode) stores through
//!   unrecovered addresses do not invalidate its memory picture, which is
//!   precisely where wrong values come from.

use er_minilang::env::Env;
use er_minilang::error::RuntimeFault;
use er_minilang::ir::*;
use er_minilang::mem::Memory;
use er_minilang::value::Width;
use std::collections::HashMap;

/// One executed, value-defining instruction.
#[derive(Debug, Clone)]
pub struct TapeEntry {
    /// Static instruction.
    pub site: InstrId,
    /// Frame activation id (unique per call).
    pub frame: u64,
    /// The instruction (cloned for operand inspection).
    pub instr: Instr,
    /// Ground-truth result of the instruction (for a `Store`, the stored
    /// value) — used only for grading, never by the analysis.
    pub truth_dst: u64,
}

/// The recorded dynamic instruction sequence plus crash-dump state.
#[derive(Debug)]
pub struct ConcreteTape {
    /// Value-defining entries, oldest first.
    pub entries: Vec<TapeEntry>,
    /// Final (crash-time) registers per live frame id.
    pub final_regs: HashMap<(u64, u32), u64>,
    /// Final memory image, byte-granular.
    pub final_mem: HashMap<u64, u8>,
    /// Whether the run faulted.
    pub faulted: bool,
}

impl ConcreteTape {
    /// Executes `program` (single-threaded subset) under `env`, recording
    /// the last `window` value-defining instructions.
    ///
    /// # Errors
    ///
    /// Returns an error string for multithreaded programs (REPT's published
    /// evaluation is per-thread; our comparison uses the sequential
    /// workloads).
    pub fn record(program: &Program, mut env: Env, window: usize) -> Result<ConcreteTape, String> {
        let mut mem = Memory::new(program);
        // (func, block, ip, regs, ret_dst, stack_mark, frame_id)
        type Frame = (FuncId, BlockId, usize, Vec<u64>, Option<Reg>, u64, u64);
        let mut frames: Vec<Frame> = Vec::new();
        let mut next_frame = 0u64;
        frames.push((
            program.entry(),
            BlockId(0),
            0,
            vec![0; program.func(program.entry()).n_regs],
            None,
            mem.stack_watermark(0),
            next_frame,
        ));
        let mut entries: Vec<TapeEntry> = Vec::new();
        let mut faulted = false;
        let mut steps: u64 = 0;

        'run: while let Some(frame) = frames.last_mut() {
            steps += 1;
            if steps > 200_000_000 {
                return Err("tape budget exceeded".into());
            }
            let (func, block, ip, frame_id) = (frame.0, frame.1, frame.2, frame.6);
            let blk = program.func(func).block(block);
            if ip >= blk.instrs.len() {
                match blk.term.clone().expect("terminated") {
                    Terminator::Jump(b) => {
                        frame.1 = b;
                        frame.2 = 0;
                    }
                    Terminator::Branch {
                        cond,
                        then_blk,
                        else_blk,
                    } => {
                        let c = operand(&frame.3, cond);
                        frame.1 = if c != 0 { then_blk } else { else_blk };
                        frame.2 = 0;
                    }
                    Terminator::Return(v) => {
                        let value = v.map(|op| operand(&frame.3, op)).unwrap_or(0);
                        let (_, _, _, _, ret_dst, mark, _) = frames.pop().expect("frame");
                        mem.stack_restore(0, mark);
                        if let Some(caller) = frames.last_mut() {
                            if let Some(dst) = ret_dst {
                                caller.3[dst.0 as usize] = value;
                            }
                            caller.2 += 1;
                        }
                    }
                }
                continue;
            }
            let instr = blk.instrs[ip].clone();
            let site = InstrId {
                func,
                block,
                index: ip,
            };
            let push_entry = |entries: &mut Vec<TapeEntry>, instr: &Instr, truth: u64| {
                entries.push(TapeEntry {
                    site,
                    frame: frame_id,
                    instr: instr.clone(),
                    truth_dst: truth,
                });
                // Trim lazily in batches; per-entry draining would make the
                // tape quadratic in run length.
                if entries.len() >= window.saturating_mul(2).max(window + 4096) {
                    let excess = entries.len() - window;
                    entries.drain(..excess);
                }
            };
            let regs = &mut frames.last_mut().expect("frame").3;
            let fault: Option<RuntimeFault> = match &instr {
                Instr::Const { dst, value } => {
                    regs[dst.0 as usize] = *value;
                    push_entry(&mut entries, &instr, *value);
                    None
                }
                Instr::Bin {
                    dst,
                    op,
                    a,
                    b,
                    width,
                } => match op.eval(*width, operand(regs, *a), operand(regs, *b)) {
                    Some(v) => {
                        regs[dst.0 as usize] = v;
                        push_entry(&mut entries, &instr, v);
                        None
                    }
                    None => Some(RuntimeFault::DivByZero),
                },
                Instr::Un { dst, op, a, width } => {
                    let v = op.eval(*width, operand(regs, *a));
                    regs[dst.0 as usize] = v;
                    push_entry(&mut entries, &instr, v);
                    None
                }
                Instr::Cmp {
                    dst,
                    pred,
                    a,
                    b,
                    width,
                } => {
                    let v = u64::from(pred.eval(*width, operand(regs, *a), operand(regs, *b)));
                    regs[dst.0 as usize] = v;
                    push_entry(&mut entries, &instr, v);
                    None
                }
                Instr::Cast { dst, a, from } => {
                    let v = from.trunc(operand(regs, *a));
                    regs[dst.0 as usize] = v;
                    push_entry(&mut entries, &instr, v);
                    None
                }
                Instr::Load { dst, addr, width } => match mem.load(operand(regs, *addr), *width) {
                    Ok(v) => {
                        regs[dst.0 as usize] = v;
                        push_entry(&mut entries, &instr, v);
                        None
                    }
                    Err(f) => Some(f),
                },
                Instr::Store { addr, value, width } => {
                    match mem.store(operand(regs, *addr), *width, operand(regs, *value)) {
                        Ok(()) => {
                            push_entry(&mut entries, &instr, operand(regs, *value));
                            None
                        }
                        Err(f) => Some(f),
                    }
                }
                Instr::GlobalAddr { dst, global } => {
                    let v = program.globals()[global.0 as usize].addr;
                    regs[dst.0 as usize] = v;
                    push_entry(&mut entries, &instr, v);
                    None
                }
                Instr::StackAlloc { dst, size } => {
                    let v = mem.stack_alloc(0, *size);
                    regs[dst.0 as usize] = v;
                    push_entry(&mut entries, &instr, v);
                    None
                }
                Instr::Alloc { dst, size } => {
                    let v = mem.heap_alloc(operand(regs, *size));
                    regs[dst.0 as usize] = v;
                    push_entry(&mut entries, &instr, v);
                    None
                }
                Instr::Free { addr } => mem.heap_free(operand(regs, *addr)).err(),
                Instr::Call { dst, func, args } => {
                    let callee = program.func(*func);
                    let mut cregs = vec![0u64; callee.n_regs];
                    for (i, a) in args.iter().enumerate() {
                        cregs[i] = operand(regs, *a);
                    }
                    let mark = mem.stack_watermark(0);
                    next_frame += 1;
                    frames.push((*func, BlockId(0), 0, cregs, *dst, mark, next_frame));
                    continue 'run;
                }
                Instr::Input { dst, source, width } => match env.read_input(*source, *width) {
                    Ok((v, _)) => {
                        regs[dst.0 as usize] = v;
                        push_entry(&mut entries, &instr, v);
                        None
                    }
                    Err(f) => Some(f),
                },
                Instr::Clock { dst } => {
                    let v = env.read_clock();
                    regs[dst.0 as usize] = v;
                    push_entry(&mut entries, &instr, v);
                    None
                }
                Instr::PtWrite { .. } | Instr::Print { .. } => None,
                Instr::Spawn { .. }
                | Instr::Join { .. }
                | Instr::Lock { .. }
                | Instr::Unlock { .. } => {
                    return Err("REPT tape supports single-threaded programs".into())
                }
                Instr::Assert { cond, message } => {
                    if operand(regs, *cond) == 0 {
                        Some(RuntimeFault::AssertFailed {
                            message: message.clone(),
                        })
                    } else {
                        None
                    }
                }
                Instr::Abort { message } => Some(RuntimeFault::Abort {
                    message: message.clone(),
                }),
            };
            if fault.is_some() {
                faulted = true;
                break 'run;
            }
            frames.last_mut().expect("frame").2 += 1;
        }

        let mut final_regs = HashMap::new();
        for (_, _, _, regs, _, _, fid) in &frames {
            for (i, &v) in regs.iter().enumerate() {
                final_regs.insert((*fid, i as u32), v);
            }
        }
        let mut final_mem = HashMap::new();
        for (base, bytes) in mem.dump() {
            for (k, &b) in bytes.iter().enumerate() {
                final_mem.insert(base + k as u64, b);
            }
        }
        if entries.len() > window {
            let excess = entries.len() - window;
            entries.drain(..excess);
        }
        if er_telemetry::enabled() {
            // Batched per tape: the recording loop above stays bare.
            er_telemetry::counter!("rept.tape_steps").add(steps);
            er_telemetry::counter!("rept.tape_entries").add(entries.len() as u64);
        }
        Ok(ConcreteTape {
            entries,
            final_regs,
            final_mem,
            faulted,
        })
    }
}

fn operand(regs: &[u64], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
    }
}

/// Recovery grade for one tape entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Recovered and equal to ground truth.
    Correct,
    /// Recovered but wrong (a no-alias guess failed).
    Wrong,
    /// Not recovered.
    Unknown,
}

/// Results of a REPT analysis over one window.
#[derive(Debug, Clone, Default)]
pub struct ReptReport {
    /// Entries analyzed.
    pub total: usize,
    /// Values recovered correctly.
    pub correct: usize,
    /// Values recovered incorrectly.
    pub wrong: usize,
    /// Values left unknown.
    pub unknown: usize,
}

impl ReptReport {
    /// Fraction of values recovered correctly.
    pub fn correct_rate(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.correct as f64 / self.total as f64
    }

    /// Fraction of values unknown or wrong (the paper's "incorrectly
    /// recovered" measure).
    pub fn degraded_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.wrong + self.unknown) as f64 / self.total as f64
    }
}

/// The reverse-execution analysis.
#[derive(Debug, Clone, Copy)]
pub struct ReptAnalysis {
    /// REPT's best-effort mode: assume stores through unrecovered addresses
    /// alias nothing the analysis cares about. Disabling it yields the
    /// conservative variant that reports unknowns instead of wrong values.
    pub assume_no_alias: bool,
}

impl Default for ReptAnalysis {
    fn default() -> Self {
        ReptAnalysis {
            assume_no_alias: true,
        }
    }
}

impl ReptAnalysis {
    /// Runs iterative backward/forward recovery (REPT's core loop) over the
    /// last `window` entries of `tape` and grades the result against ground
    /// truth.
    pub fn analyze(&self, tape: &ConcreteTape, window: usize) -> ReptReport {
        let _span = er_telemetry::span!("rept.analyze");
        let start = tape.entries.len().saturating_sub(window);
        let entries = &tape.entries[start..];
        let mut values: Vec<Option<u64>> = vec![None; entries.len()];
        for _round in 0..3 {
            self.backward_pass(tape, entries, &mut values);
            self.forward_pass(tape, entries, &mut values);
        }
        let mut report = ReptReport::default();
        for (e, v) in entries.iter().zip(&values) {
            if e.instr.dst().is_none() {
                continue; // stores/frees define no register value
            }
            report.total += 1;
            match v {
                Some(v) if *v == e.truth_dst => report.correct += 1,
                Some(_) => report.wrong += 1,
                None => report.unknown += 1,
            }
        }
        report
    }

    fn backward_pass(
        &self,
        tape: &ConcreteTape,
        entries: &[TapeEntry],
        values: &mut [Option<u64>],
    ) {
        // Known register values, keyed by (frame id, register).
        let mut regs: HashMap<(u64, u32), u64> = tape.final_regs.clone();
        // The analysis's picture of memory (starts as the crash dump).
        let mut mem: HashMap<u64, u8> = tape.final_mem.clone();
        let mut mem_valid = true;
        for (i, e) in entries.iter().enumerate().rev() {
            // Seed knowledge from previous passes.
            if let (Some(d), Some(v)) = (e.instr.dst(), values[i]) {
                regs.entry((e.frame, d.0)).or_insert(v);
            }
            let (_, believed) = self.step_back(e, &mut regs, &mut mem, &mut mem_valid);
            if values[i].is_none() {
                values[i] = believed;
            }
        }
    }

    /// Forward constant/dataflow propagation. Loads with a known address
    /// but no tracked write fall back to the *crash dump* when
    /// `assume_no_alias` is set — REPT's guess, and the source of its
    /// silently wrong values when a later store aliased the location.
    fn forward_pass(&self, tape: &ConcreteTape, entries: &[TapeEntry], values: &mut [Option<u64>]) {
        let mut regs: HashMap<(u64, u32), u64> = HashMap::new();
        let mut mem_fwd: HashMap<u64, u8> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            let frame = e.frame;
            let reg_of = |regs: &HashMap<(u64, u32), u64>, op: Operand| -> Option<u64> {
                match op {
                    Operand::Imm(v) => Some(v),
                    Operand::Reg(r) => regs.get(&(frame, r.0)).copied(),
                }
            };
            let computed: Option<u64> = match &e.instr {
                Instr::Const { value, .. } => Some(*value),
                Instr::GlobalAddr { .. } => Some(e.truth_dst), // static layout is known
                Instr::Bin {
                    op, a, b, width, ..
                } => match (reg_of(&regs, *a), reg_of(&regs, *b)) {
                    (Some(x), Some(y)) => op.eval(*width, x, y),
                    _ => None,
                },
                Instr::Un { op, a, width, .. } => reg_of(&regs, *a).map(|x| op.eval(*width, x)),
                Instr::Cmp {
                    pred, a, b, width, ..
                } => match (reg_of(&regs, *a), reg_of(&regs, *b)) {
                    (Some(x), Some(y)) => Some(u64::from(pred.eval(*width, x, y))),
                    _ => None,
                },
                Instr::Cast { a, from, .. } => reg_of(&regs, *a).map(|x| from.trunc(x)),
                Instr::Load { addr, width, .. } => reg_of(&regs, *addr).and_then(|a| {
                    // Prefer writes tracked within the window.
                    let tracked = (0..width.bytes())
                        .map(|k| mem_fwd.get(&(a + k)).copied())
                        .collect::<Option<Vec<u8>>>();
                    match tracked {
                        Some(bytes) => {
                            let mut v = 0u64;
                            for (k, b) in bytes.iter().enumerate() {
                                v |= u64::from(*b) << (8 * k);
                            }
                            Some(v)
                        }
                        None if self.assume_no_alias => {
                            // The REPT guess: the dump still holds it.
                            let mut v = 0u64;
                            for k in 0..width.bytes() {
                                v |= u64::from(*tape.final_mem.get(&(a + k))?) << (8 * k);
                            }
                            Some(v)
                        }
                        None => None,
                    }
                }),
                _ => None,
            };
            if let Some(v) = computed {
                values[i].get_or_insert(v);
            }
            // Propagate register state forward using the best-known value.
            if let Some(d) = e.instr.dst() {
                match values[i] {
                    Some(v) => {
                        regs.insert((frame, d.0), v);
                    }
                    None => {
                        regs.remove(&(frame, d.0));
                    }
                }
            }
            if let Instr::Store { addr, value, width } = &e.instr {
                match (reg_of(&regs, *addr), reg_of(&regs, *value)) {
                    (Some(a), Some(v)) => {
                        for k in 0..width.bytes() {
                            mem_fwd.insert(a + k, (v >> (8 * k)) as u8);
                        }
                    }
                    (Some(a), None) => {
                        for k in 0..width.bytes() {
                            mem_fwd.remove(&(a + k));
                        }
                    }
                    (None, _) => {
                        // Store through an unknown address.
                        if !self.assume_no_alias {
                            mem_fwd.clear();
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step_back(
        &self,
        e: &TapeEntry,
        regs: &mut HashMap<(u64, u32), u64>,
        mem: &mut HashMap<u64, u8>,
        mem_valid: &mut bool,
    ) -> (Recovery, Option<u64>) {
        let frame = e.frame;
        let key = |r: Reg| (frame, r.0);
        let reg_of = |regs: &HashMap<(u64, u32), u64>, op: Operand| -> Option<u64> {
            match op {
                Operand::Imm(v) => Some(v),
                Operand::Reg(r) => regs.get(&(frame, r.0)).copied(),
            }
        };
        let load_mem = |mem: &HashMap<u64, u8>, addr: u64, w: Width| -> Option<u64> {
            let mut v = 0u64;
            for k in 0..w.bytes() {
                v |= u64::from(*mem.get(&(addr + k))?) << (8 * k);
            }
            Some(v)
        };

        // The value this entry defined, as the analysis believes it.
        let dst = e.instr.dst();
        let believed = dst.and_then(|d| regs.get(&key(d)).copied());

        // Grade against ground truth. Backward memory is maintained
        // soundly (bytes are killed when stepping over stores), so loads
        // may recover from it even without the no-alias assumption.
        let mut believed = believed;
        if believed.is_none() {
            if let Instr::Load { addr, width, .. } = &e.instr {
                if *mem_valid || self.assume_no_alias {
                    if let Some(a) = reg_of(regs, *addr) {
                        if let Some(v) = load_mem(mem, a, *width) {
                            if let Some(d) = dst {
                                regs.insert(key(d), v);
                            }
                            believed = Some(v);
                        }
                    }
                }
            }
        }
        let grade = match believed {
            Some(v) if v == e.truth_dst => Recovery::Correct,
            Some(_) => Recovery::Wrong,
            None => Recovery::Unknown,
        };

        // Move to the pre-state: the def's previous value is unknown, and
        // inversion rules may teach us operand values.
        let believed_dst = believed;
        if let Some(d) = dst {
            regs.remove(&key(d));
        }
        match &e.instr {
            Instr::Bin {
                op, a, b, width, ..
            } => {
                if let Some(v) = believed_dst {
                    use er_minilang::value::BinOp::*;
                    // Invertible ops: with the result and one operand, the
                    // other follows.
                    let (ka, kb) = (reg_of(regs, *a), reg_of(regs, *b));
                    match (op, ka, kb) {
                        (Add, Some(av), None) => {
                            if let Operand::Reg(rb) = b {
                                regs.insert(key(*rb), width.trunc(v.wrapping_sub(av)));
                            }
                        }
                        (Add, None, Some(bv)) => {
                            if let Operand::Reg(ra) = a {
                                regs.insert(key(*ra), width.trunc(v.wrapping_sub(bv)));
                            }
                        }
                        (Sub, Some(av), None) => {
                            if let Operand::Reg(rb) = b {
                                regs.insert(key(*rb), width.trunc(av.wrapping_sub(v)));
                            }
                        }
                        (Sub, None, Some(bv)) => {
                            if let Operand::Reg(ra) = a {
                                regs.insert(key(*ra), width.trunc(v.wrapping_add(bv)));
                            }
                        }
                        (Xor, Some(av), None) => {
                            if let Operand::Reg(rb) = b {
                                regs.insert(key(*rb), width.trunc(v ^ av));
                            }
                        }
                        (Xor, None, Some(bv)) => {
                            if let Operand::Reg(ra) = a {
                                regs.insert(key(*ra), width.trunc(v ^ bv));
                            }
                        }
                        // `x | 0` and `x ^ 0` are the compiler's register
                        // moves; the source held the same value.
                        (Or, None, Some(0)) => {
                            if let Operand::Reg(ra) = a {
                                regs.insert(key(*ra), v);
                            }
                        }
                        (Or, Some(0), None) => {
                            if let Operand::Reg(rb) = b {
                                regs.insert(key(*rb), v);
                            }
                        }
                        _ => {}
                    }
                }
            }
            Instr::Load { addr, width, .. } => {
                // The memory at `addr` held the loaded value at this point.
                if let (Some(a), Some(v)) = (reg_of(regs, *addr), believed_dst) {
                    for k in 0..width.bytes() {
                        mem.insert(a + k, (v >> (8 * k)) as u8);
                    }
                }
            }
            Instr::Store { addr, value, width } => {
                match reg_of(regs, *addr) {
                    Some(a) => {
                        // Learn the stored value from the post-state memory,
                        // then kill those bytes (their pre-state is unknown).
                        if let (Operand::Reg(rv), Some(v)) = (value, load_mem(mem, a, *width)) {
                            regs.entry(key(*rv)).or_insert(v);
                        }
                        for k in 0..width.bytes() {
                            mem.remove(&(a + k));
                        }
                    }
                    None => {
                        // A store through an unrecovered address. REPT's
                        // best-effort mode assumes it aliases nothing;
                        // the conservative mode abandons the memory picture.
                        if !self.assume_no_alias {
                            mem.clear();
                            *mem_valid = false;
                        }
                    }
                }
            }
            _ => {}
        }
        (grade, believed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;

    fn tape_for(src: &str, inputs: &[(u32, Vec<u8>)]) -> (Program, ConcreteTape) {
        let program = compile(src).unwrap();
        let mut env = Env::new();
        for (s, b) in inputs {
            env.push_input(*s, b);
        }
        let tape = ConcreteTape::record(&program, env, 1_000_000).unwrap();
        (program, tape)
    }

    #[test]
    fn short_windows_recover_well() {
        let src = r#"
            fn main() {
                let a: u32 = input_u32(0);
                let b: u32 = a + 7;
                let c: u32 = b * 3;
                store32(alloc(16), c);
                abort("crash");
            }
        "#;
        let (_, tape) = tape_for(src, &[(0, 5u32.to_le_bytes().to_vec())]);
        assert!(tape.faulted);
        let report = ReptAnalysis::default().analyze(&tape, 64);
        assert!(
            report.correct_rate() > 0.8,
            "short window should recover most values: {report:?}"
        );
    }

    #[test]
    fn recovery_decays_with_window_length() {
        // A loop that overwrites its working set repeatedly: older values
        // are destroyed, so larger windows recover proportionally less.
        let src = r#"
            global TBL: [u32; 64];
            fn main() {
                let n: u32 = input_u32(0);
                let acc: u32 = 0;
                for i: u32 = 0; i < n; i = i + 1 {
                    let x: u32 = (i * 2654435761) ^ acc;
                    acc = x % 255;
                    TBL[i % 64] = acc;
                }
                assert(acc == 999999, "always fails");
            }
        "#;
        let (_, tape) = tape_for(src, &[(0, 4000u32.to_le_bytes().to_vec())]);
        assert!(tape.faulted);
        let rept = ReptAnalysis::default();
        let small = rept.analyze(&tape, 200);
        let large = rept.analyze(&tape, 20_000);
        assert!(
            large.degraded_rate() > small.degraded_rate(),
            "long windows degrade: small {:?} vs large {:?}",
            small,
            large
        );
        assert!(
            large.degraded_rate() > 0.15,
            "the paper reports 15%+ degradation on long traces: {large:?}"
        );
    }

    #[test]
    fn no_alias_mode_produces_wrong_values() {
        // Writes through a data-dependent (unrecoverable) pointer alias the
        // location a later load reads: the no-alias guess yields wrong
        // values, the conservative mode yields unknowns.
        let src = r#"
            global SLOTS: [u32; 32];
            fn main() {
                let k: u32 = input_u32(0);
                for round: u32 = 0; round < 200; round = round + 1 {
                    let idx: u32 = (k + round * 7) % 32;
                    SLOTS[idx] = round;
                    let probe: u32 = SLOTS[(k + round) % 32];
                    let sink: u32 = probe + 1;
                    print(sink);
                }
                abort("done");
            }
        "#;
        let (_, tape) = tape_for(src, &[(0, 3u32.to_le_bytes().to_vec())]);
        let best_effort = ReptAnalysis {
            assume_no_alias: true,
        }
        .analyze(&tape, 5_000);
        let conservative = ReptAnalysis {
            assume_no_alias: false,
        }
        .analyze(&tape, 5_000);
        assert!(
            best_effort.wrong > 0,
            "best-effort REPT must produce some wrong values: {best_effort:?}"
        );
        assert!(
            conservative.wrong <= best_effort.wrong,
            "conservative mode trades wrong for unknown"
        );
    }

    #[test]
    fn multithreaded_programs_are_rejected() {
        let src = "fn w() {}\nfn main() { let t: u64 = spawn w(); join(t); }";
        let program = compile(src).unwrap();
        assert!(ConcreteTape::record(&program, Env::new(), 100).is_err());
    }

    #[test]
    fn completed_runs_also_tape() {
        let src = "fn main() { let a: u32 = 1 + 2; print(a); }";
        let (_, tape) = tape_for(src, &[]);
        assert!(!tape.faulted);
        assert!(!tape.entries.is_empty());
    }
}
