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
//! * [`ConcreteTape`] is what REPT consumes, a binary plus its PT trace,
//!   taken from a traced run of the production interpreter
//!   ([`Machine`]). The run uses a build that records every
//!   value-defining instruction, so walking that build's code along the
//!   decoded trace gives the dynamic instruction sequence, and the
//!   recorded values are the ground truth used only for grading.
//! * [`ReptAnalysis`] sees only the instruction sequence, the final
//!   registers, and the final memory — never the ground-truth values — and
//!   recovers what it can via backward inversion. With
//!   `assume_no_alias = true` (REPT's best-effort mode) stores through
//!   unrecovered addresses do not invalidate its memory picture, which is
//!   precisely where wrong values come from.

use er_minilang::code::{Op, Pc};
use er_minilang::env::Env;
use er_minilang::error::RuntimeFault;
use er_minilang::interp::{Machine, RunOutcome};
use er_minilang::ir::*;
use er_minilang::value::Width;
use er_pt::sink::{PtConfig, PtSink};
use std::collections::{HashMap, VecDeque};

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

/// A live frame of the walk: its activation id, its registers, and the
/// pc its caller resumes at.
struct Frame {
    id: u64,
    regs: Vec<u64>,
    ret: Pc,
}

impl ConcreteTape {
    /// Executes `program` (single-threaded subset) under `env`, recording
    /// the last `window` value-defining instructions.
    ///
    /// The run is the production interpreter's, on the build that records
    /// every value-defining instruction. Its PT trace is decoded and walked
    /// along that build's code: branch events pick the successor, each
    /// recording slot supplies its instruction's value, and the walk stops
    /// after the run's instruction count. A call's return value only sets
    /// the caller's register; stores take their value operand as truth.
    ///
    /// # Errors
    ///
    /// Returns an error string for multithreaded programs (REPT's published
    /// evaluation is per-thread; our comparison uses the sequential
    /// workloads), for runs that exhaust the instruction budget, and for
    /// traces whose ring wrapped.
    pub fn record(program: &Program, env: Env, window: usize) -> Result<ConcreteTape, String> {
        let base = program.code();
        let sites: Vec<InstrId> = (0..base.ops().len() as Pc)
            .filter(|&pc| base.defines_value(pc))
            .map(|pc| base.id_of(pc))
            .collect();
        let recorded = program.recording(&sites);
        let report = Machine::with_sink(&recorded, env, PtSink::new(PtConfig::default())).run();
        let faulted = match &report.outcome {
            RunOutcome::Completed => false,
            RunOutcome::Failure(f) if f.fault == RuntimeFault::Hang => {
                return Err("tape budget exceeded".into())
            }
            RunOutcome::Failure(_) => true,
        };
        let trace = report
            .sink
            .finish()
            .decode()
            .map_err(|e| format!("tape trace undecodable: {e}"))?;
        if trace.has_gap() {
            return Err("tape trace lost its prefix".into());
        }
        // Branches and recorded values are consumed in trace order, each
        // stream on its own; calls and returns follow from the code.
        let mut branches = trace.branches().into_iter();
        let mut values = trace.ptwrites().into_iter();

        let code = recorded.code();
        let ops = code.ops();
        let mut frames = vec![Frame {
            id: 0,
            regs: vec![0; program.func(program.entry()).n_regs],
            ret: 0,
        }];
        let mut entries = VecDeque::new();
        let mut push_entry = |pc: Pc, frame: u64, truth_dst: u64| {
            let site = code.id_of(pc);
            let instr = program.instr(site).expect("recorded site").clone();
            entries.push_back(TapeEntry {
                site,
                frame,
                instr,
                truth_dst,
            });
            if entries.len() > window {
                entries.pop_front();
            }
        };
        let (mut pc, mut next_frame) = (code.entry(), 0);
        for n in 1..=report.instr_count {
            let op = ops[pc as usize];
            let frame = frames.last_mut().expect("live frame");
            pc = match op {
                Op::Spawn { .. } | Op::Join { .. } | Op::Lock { .. } | Op::Unlock { .. } => {
                    return Err("REPT tape supports single-threaded programs".into())
                }
                // The faulting op changed nothing.
                _ if faulted && n == report.instr_count => break,
                Op::Jump { to } => to,
                Op::Branch {
                    then_pc, else_pc, ..
                } => {
                    if branches.next().expect("traced branch") {
                        then_pc
                    } else {
                        else_pc
                    }
                }
                Op::Call { site } => {
                    let site = code.call_site(site);
                    let mut regs = vec![0; site.n_regs];
                    for (r, a) in regs.iter_mut().zip(site.args.iter()) {
                        *r = operand(&frame.regs, *a);
                    }
                    next_frame += 1;
                    frames.push(Frame {
                        id: next_frame,
                        regs,
                        ret: pc + 1,
                    });
                    site.entry
                }
                Op::Return { .. } => {
                    let ret = frames.pop().expect("live frame").ret;
                    if frames.is_empty() {
                        break;
                    }
                    ret
                }
                Op::PtWrite { value } => {
                    let v = values.next().expect("traced ptwrite");
                    // A recording slot writes the register its instruction
                    // defined; a call's return value gets no entry.
                    if let (true, Operand::Reg(dst)) = (code.is_recording(pc), value) {
                        frame.regs[dst.0 as usize] = v;
                        if !matches!(ops[pc as usize - 1], Op::Call { .. }) {
                            push_entry(pc, frame.id, v);
                        }
                    }
                    pc + 1
                }
                Op::Store { value, .. } => {
                    push_entry(pc, frame.id, operand(&frame.regs, value));
                    pc + 1
                }
                _ => pc + 1,
            };
        }

        let final_regs = frames
            .iter()
            .flat_map(|f| (0..).zip(&f.regs).map(|(i, &v)| ((f.id, i), v)))
            .collect();
        let final_mem = (report.mem.dump().into_iter())
            .flat_map(|(base, bytes)| (base..).zip(bytes))
            .collect();
        if er_telemetry::enabled() {
            // Batched per tape: the walk above stays bare.
            er_telemetry::counter!("rept.tape_steps").add(report.instr_count);
            er_telemetry::counter!("rept.tape_entries").add(entries.len() as u64);
        }
        Ok(ConcreteTape {
            entries: entries.into(),
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
            let believed = self.step_back(e, &mut regs, &mut mem, &mut mem_valid);
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

    /// Steps backward over `e`: returns the value it defined, as the
    /// analysis believes it, and leaves `regs` and `mem` at its pre-state.
    #[allow(clippy::too_many_lines)]
    fn step_back(
        &self,
        e: &TapeEntry,
        regs: &mut HashMap<(u64, u32), u64>,
        mem: &mut HashMap<u64, u8>,
        mem_valid: &mut bool,
    ) -> Option<u64> {
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

        // Backward memory is maintained soundly (bytes are killed when stepping over stores), so loads
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
        believed
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
