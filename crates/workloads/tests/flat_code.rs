//! The pc ↔ `InstrId` mapping of flat code, over every Table-1 program.
//!
//! Both executors run on pcs while failures and trace sites speak
//! `InstrId`s of the unchanged IR, so every build the pipeline produces —
//! the original programs and their recorded builds — must map each
//! instruction to one slot and back. A recorded build must lower exactly
//! like the program with `ptwrite`s inserted into its blocks. The
//! interpreter's fused array must pair only ops of one block with no
//! recording slot between them.

use er_core::instrument::InstrumentedProgram;
use er_minilang::code::{Code, Pc};
use er_minilang::ir::{BlockId, FuncId, Instr, InstrId, Operand, Program};
use er_workloads::Scale;

/// Every instruction and terminator of `p`, in layout order.
fn all_ids(p: &Program) -> Vec<InstrId> {
    let mut ids = Vec::new();
    for (fi, f) in p.funcs().iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            let (func, block) = (FuncId(fi as u32), BlockId(bi as u32));
            ids.extend((0..b.instrs.len()).map(|index| InstrId { func, block, index }));
            ids.push(InstrId {
                func,
                block,
                index: InstrId::TERMINATOR,
            });
        }
    }
    ids
}

/// Every value-defining site of `p`.
fn dst_sites(p: &Program) -> Vec<InstrId> {
    all_ids(p)
        .into_iter()
        .filter(|&id| p.instr(id).is_some_and(|i| i.dst().is_some()))
        .collect()
}

/// The reference for a recorded build: `p` with an `Instr::PtWrite` of
/// the destination inserted into the blocks after each of `sites`
/// (ascending), lowered without recording.
fn inserted(p: &Program, sites: &[InstrId]) -> Program {
    let mut funcs = p.funcs().to_vec();
    for s in sites.iter().rev() {
        let b = &mut funcs[s.func.0 as usize].blocks[s.block.0 as usize];
        let dst = b.instrs[s.index].dst().expect("a dst site");
        b.instrs.insert(
            s.index + 1,
            Instr::PtWrite {
                value: Operand::Reg(dst),
            },
        );
    }
    Program::new(funcs, p.globals().to_vec(), p.entry())
}

/// `code` is `p` recording exactly `sites`: its ops are the inserted-IR
/// reference's, every slot but a recording slot carries its original id in
/// layout order, the recording slots carry `sites`, and every id's slot is
/// its own and maps back to it.
fn assert_records(name: &str, p: &Program, sites: &[InstrId], code: &Code) {
    assert_eq!(
        code.ops(),
        inserted(p, sites).code().ops(),
        "{name}: ops differ from the inserted-IR reference"
    );
    let ids = all_ids(p);
    let mut originals = ids.iter();
    let mut recorded = Vec::new();
    for pc in 0..code.ops().len() as Pc {
        if code.is_recording(pc) {
            recorded.push(code.id_of(pc));
        } else {
            assert_eq!(
                Some(&code.id_of(pc)),
                originals.next(),
                "{name}: id_of({pc})"
            );
        }
    }
    assert_eq!(originals.next(), None, "{name}: every original slot");
    assert_eq!(recorded, sites, "{name}: recording slots");
    for &id in &ids {
        let pc = code.pc_of(id).expect("every id has a slot");
        assert_eq!(code.id_of(pc), id, "{name}: id_of(pc_of({id}))");
        assert!(
            !code.is_recording(pc),
            "{name}: pc_of({id}) is a recording slot"
        );
    }
}

#[test]
fn every_table1_program_maps_pcs_and_instr_ids_both_ways() {
    for w in er_workloads::all() {
        let p = w.program(Scale::TEST);
        let ids = all_ids(&p);
        let code = p.code();
        assert_eq!(ids.len(), code.ops().len(), "{}: one slot per site", w.name);
        for (pc, &id) in ids.iter().enumerate() {
            assert_eq!(code.pc_of(id), Some(pc as Pc), "{}: pc_of({id})", w.name);
        }
        assert_records(w.name, &p, &[], code);
        let sites = dst_sites(&p);
        assert!(!sites.is_empty(), "{}", w.name);
        // Recording every dst site at once, and each alone.
        let all = InstrumentedProgram::new(&p, &sites);
        assert_eq!(all.sites, sites);
        assert_records(w.name, &p, &sites, all.program.code());
        for &site in &sites {
            assert_records(w.name, &p, &[site], p.recording(&[site]).code());
        }
    }
}

/// The interpreter's fast array of `code` fuses only adjacent ops of one
/// block, neither of them a recording slot, holds the op itself at every
/// other pc, and bills each pc the ops through its block's terminator.
/// Returns the number of pairs.
fn assert_fast_ops(name: &str, code: &Code) -> usize {
    let (ops, fast, run_len) = (code.ops(), code.fast_ops(), code.run_lens());
    assert_eq!(fast.len(), ops.len(), "{name}");
    assert_eq!(run_len.len(), ops.len(), "{name}");
    let mut pairs = 0;
    let mut pc = 0;
    while pc < ops.len() {
        let at = pc as Pc;
        if let Some((first, second)) = fast[pc].split() {
            assert_eq!(
                (first, second),
                (ops[pc].specialize(), ops[pc + 1].specialize()),
                "{name}: pc {pc}"
            );
            let (a, b) = (code.id_of(at), code.id_of(at + 1));
            assert_eq!((a.func, a.block), (b.func, b.block), "{name}: pc {pc}");
            assert!(
                !code.is_recording(at) && !code.is_recording(at + 1),
                "{name}: pc {pc}"
            );
            assert_eq!(
                fast[pc + 1],
                ops[pc + 1].specialize(),
                "{name}: pairs overlap at {pc}"
            );
            pairs += 1;
            pc += 2;
        } else {
            assert_eq!(fast[pc], ops[pc].specialize(), "{name}: pc {pc}");
            pc += 1;
        }
    }
    // A block's terminator is the first slot at or after a pc with the
    // terminator index.
    let mut next_term = ops.len();
    for pc in (0..ops.len()).rev() {
        if code.id_of(pc as Pc).index == InstrId::TERMINATOR {
            next_term = pc;
        }
        assert_eq!(
            run_len[pc] as usize,
            next_term - pc + 1,
            "{name}: run_len[{pc}]"
        );
    }
    pairs
}

#[test]
fn every_table1_program_fuses_only_within_blocks() {
    for w in er_workloads::all() {
        let p = w.program(Scale::TEST);
        let pairs = assert_fast_ops(w.name, p.code());
        assert!(pairs > 0, "{}: every program runs `crunch`", w.name);
        let all = InstrumentedProgram::new(&p, &dst_sites(&p));
        assert_fast_ops(w.name, all.program.code());
    }
}
