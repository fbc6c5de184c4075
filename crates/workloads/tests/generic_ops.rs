//! `Code::ops` is the program's meaning over every Table-1 program: each
//! instruction in its one generic form, whatever the build records. The
//! speed forms (`Mov`, the specialized `<op>RR`/`<op>RI` forms and the
//! fused pairs) live only in `Code::fast_ops`.

use er_minilang::code::{Code, Op};
use er_minilang::ir::{BlockId, FuncId, InstrId, Program};
use er_workloads::Scale;

/// Whether `op` is one of the forms lowering gives an IR instruction or
/// terminator; every speed form, present or future, is not.
fn generic(op: &Op) -> bool {
    matches!(
        op,
        Op::Const { .. }
            | Op::Bin { .. }
            | Op::Cmp { .. }
            | Op::Un { .. }
            | Op::Cast { .. }
            | Op::Load { .. }
            | Op::Store { .. }
            | Op::StackAlloc { .. }
            | Op::Alloc { .. }
            | Op::Free { .. }
            | Op::Call { .. }
            | Op::Spawn { .. }
            | Op::Input { .. }
            | Op::Clock { .. }
            | Op::PtWrite { .. }
            | Op::Print { .. }
            | Op::Join { .. }
            | Op::Lock { .. }
            | Op::Unlock { .. }
            | Op::Assert { .. }
            | Op::Abort { .. }
            | Op::Jump { .. }
            | Op::Branch { .. }
            | Op::Return { .. }
    )
}

/// Every value-defining instruction of `p`, in site order.
fn value_sites(p: &Program) -> Vec<InstrId> {
    let mut sites = Vec::new();
    for (fi, f) in p.funcs().iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (index, instr) in b.instrs.iter().enumerate() {
                if instr.dst().is_some() {
                    sites.push(InstrId {
                        func: FuncId(fi as u32),
                        block: BlockId(bi as u32),
                        index,
                    });
                }
            }
        }
    }
    sites
}

fn assert_generic(name: &str, code: &Code) {
    for (pc, op) in code.ops().iter().enumerate() {
        assert!(generic(op), "{name}: ops()[{pc}] is the speed form {op:?}");
    }
    assert!(
        code.fast_ops().iter().any(|op| !generic(op)),
        "{name}: fast_ops() holds speed forms"
    );
}

#[test]
fn every_table1_program_keeps_speed_forms_out_of_ops() {
    for w in er_workloads::all() {
        let p = w.program(Scale::TEST);
        assert_generic(w.name, p.code());
        let recorded = p.recording(&value_sites(&p));
        assert_generic(w.name, recorded.code());
    }
}
