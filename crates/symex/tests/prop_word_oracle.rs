//! Differential property test of the word evaluator, the one definition
//! of the register-only ops that both block loops run (fused pairs
//! included), with the shepherded executor's step path as the oracle.
//!
//! An all-concrete frame shepherds on `Op::eval_words` over
//! `Code::fast_ops`, as the interpreter runs, so an evaluator arm that
//! means something other than its op, or a fused form that means
//! something other than its two ops, would agree with itself there. Here
//! every program reads an input into a register first and keeps it live
//! to the end: the frame holds a symbolic register throughout, so every
//! op of the shepherded run takes the step path on `Code::ops`, which
//! holds no fused form and evaluates through `sym_bin`/`sym_cmp`/`sym_un`.
//! Random programs loop over every specialized 64-bit ALU form,
//! register–register and register–immediate, each alone or followed by a
//! `Mov` of its result (an op→move pair), and over narrower widths,
//! division, unary ops and casts, on boundary values; the loop test and a
//! test on the accumulators are compare→branch pairs. Each program runs
//! under PT as written, where a `ptwrite` of every accumulator ends each
//! iteration, and built with `Program::recording` over every
//! value-defining op that does not start a pair. An arm that computes,
//! writes or branches differently from the step path makes the shepherded
//! run diverge instead of completing.

use er_minilang::env::Env;
use er_minilang::interp::{Machine, RunOutcome};
use er_minilang::ir::{
    Block, BlockId, Func, FuncId, Instr, InstrId, Operand, Program, Reg, Terminator,
};
use er_minilang::value::{BinOp, CmpOp, UnOp, Width};
use er_pt::packet::TraceEvent;
use er_pt::sink::{PtConfig, PtSink};
use er_symex::{ShepherdStatus, SymConfig, SymMachine};
use proptest::prelude::*;

/// Accumulator registers `r0..r{ACCS}`; the loop counter, the branch
/// condition and the input register follow them.
const ACCS: u32 = 4;
const COUNTER: Reg = Reg(ACCS);
const COND: Reg = Reg(ACCS + 1);
const INPUT: Reg = Reg(ACCS + 2);

/// Sign and width boundaries, and shift amounts at and past 64.
const BOUNDARY: [u64; 12] = [
    0,
    1,
    63,
    64,
    65,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
    i64::MAX as u64,
    i64::MIN as u64,
    -2i64 as u64,
    -1i64 as u64,
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Bin(BinOp),
    Cmp(CmpOp),
    Un(UnOp),
    Cast,
}

/// Every operation with a specialized 64-bit form, then division, the
/// unary ops and the cast, which keep a generic form.
const KINDS: [Kind; 21] = [
    Kind::Bin(BinOp::Add),
    Kind::Bin(BinOp::Sub),
    Kind::Bin(BinOp::Mul),
    Kind::Bin(BinOp::And),
    Kind::Bin(BinOp::Or),
    Kind::Bin(BinOp::Xor),
    Kind::Bin(BinOp::Shl),
    Kind::Bin(BinOp::LShr),
    Kind::Bin(BinOp::AShr),
    Kind::Cmp(CmpOp::Eq),
    Kind::Cmp(CmpOp::Ne),
    Kind::Cmp(CmpOp::Ult),
    Kind::Cmp(CmpOp::Ule),
    Kind::Cmp(CmpOp::Slt),
    Kind::Cmp(CmpOp::Sle),
    Kind::Bin(BinOp::UDiv),
    Kind::Bin(BinOp::URem),
    Kind::Un(UnOp::Neg),
    Kind::Un(UnOp::Not),
    Kind::Un(UnOp::LNot),
    Kind::Cast,
];

const PREDS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Ult,
    CmpOp::Ule,
    CmpOp::Slt,
    CmpOp::Sle,
];

/// `dst = a kind b` at `width` (a cast truncates `a` to `width`; a
/// division divides by `b | 1`), then `mov = dst` if `mov` is set.
#[derive(Debug, Clone)]
struct Step {
    kind: Kind,
    width: Width,
    dst: u32,
    a: u32,
    b: Operand,
    mov: Option<u32>,
}

fn value() -> impl Strategy<Value = u64> {
    prop_oneof![(0..BOUNDARY.len()).prop_map(|i| BOUNDARY[i]), any::<u64>(),]
}

fn rhs() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0..ACCS).prop_map(|r| Operand::Reg(Reg(r))),
        value().prop_map(Operand::Imm),
    ]
}

fn width() -> impl Strategy<Value = Width> {
    // 64 bits, where pairs form, three times in four.
    prop_oneof![
        Just(Width::W64),
        Just(Width::W64),
        Just(Width::W64),
        prop_oneof![Just(Width::W8), Just(Width::W16), Just(Width::W32)],
    ]
}

fn step() -> impl Strategy<Value = Step> {
    (
        // The specialized operations twice as often as the rest.
        (prop_oneof![0..KINDS.len(), 0..15usize], width()),
        0..ACCS,
        0..ACCS,
        rhs(),
        // A move two times in three.
        prop_oneof![
            (0..ACCS).prop_map(Some),
            (0..ACCS).prop_map(Some),
            Just(None)
        ],
    )
        .prop_map(|((k, width), dst, a, b, mov)| Step {
            kind: KINDS[k],
            width,
            dst,
            a,
            b,
            mov,
        })
}

fn emit(out: &mut Vec<Instr>, step: &Step) {
    let (dst, a, b, width) = (Reg(step.dst), Operand::Reg(Reg(step.a)), step.b, step.width);
    out.push(match step.kind {
        Kind::Bin(op @ (BinOp::UDiv | BinOp::URem)) => Instr::Bin {
            dst,
            op,
            a,
            // Never zero at any width, so no run faults.
            b: Operand::Imm(match b {
                Operand::Imm(v) => v | 1,
                Operand::Reg(_) => 3,
            }),
            width,
        },
        Kind::Bin(op) => Instr::Bin {
            dst,
            op,
            a,
            b,
            width,
        },
        Kind::Cmp(pred) => Instr::Cmp {
            dst,
            pred,
            a,
            b,
            width,
        },
        Kind::Un(op) => Instr::Un { dst, op, a, width },
        Kind::Cast => Instr::Cast {
            dst,
            a,
            from: width,
        },
    });
    if let Some(mov) = step.mov {
        // The lowering's register move, which flat code calls `Mov`.
        out.push(Instr::Bin {
            dst: Reg(mov),
            op: BinOp::Or,
            a: Operand::Reg(dst),
            b: Operand::Imm(0),
            width: Width::W64,
        });
    }
}

fn block(instrs: Vec<Instr>, term: Terminator) -> Block {
    Block {
        instrs,
        term: Some(term),
    }
}

/// `ptwrite` of every accumulator.
fn publish() -> Vec<Instr> {
    (0..ACCS)
        .map(|r| Instr::PtWrite {
            value: Operand::Reg(Reg(r)),
        })
        .collect()
}

/// A program that reads [`INPUT`], seeds the accumulators, then `iters`
/// times runs `body`, and `then` when `r{test.1} test.0 test.2` holds,
/// publishing the accumulators after each iteration and at the end.
fn build(
    seeds: &[u64],
    body: &[Step],
    test: (CmpOp, u32, Operand),
    then: &[Step],
    iters: u64,
) -> Program {
    let (header, body_blk, exit, then_blk, latch) =
        (BlockId(1), BlockId(2), BlockId(3), BlockId(4), BlockId(5));
    let mut b0 = vec![Instr::Input {
        dst: INPUT,
        source: 0,
        width: Width::W64,
    }];
    b0.extend(seeds.iter().enumerate().map(|(r, &value)| Instr::Const {
        dst: Reg(r as u32),
        value,
    }));
    b0.push(Instr::Const {
        dst: COUNTER,
        value: 0,
    });
    let b1 = vec![Instr::Cmp {
        dst: COND,
        pred: CmpOp::Ult,
        a: Operand::Reg(COUNTER),
        b: Operand::Imm(iters),
        width: Width::W64,
    }];
    let mut b2 = Vec::new();
    for s in body {
        emit(&mut b2, s);
    }
    let (pred, x, y) = test;
    b2.push(Instr::Cmp {
        dst: COND,
        pred,
        a: Operand::Reg(Reg(x)),
        b: y,
        width: Width::W64,
    });
    let mut b4 = Vec::new();
    for s in then {
        emit(&mut b4, s);
    }
    let mut b5 = publish();
    b5.push(Instr::Bin {
        dst: COUNTER,
        op: BinOp::Add,
        a: Operand::Reg(COUNTER),
        b: Operand::Imm(1),
        width: Width::W64,
    });
    // The input stays live to the end, so no frame is all-concrete.
    let mut b3 = publish();
    b3.push(Instr::Print {
        value: Operand::Reg(INPUT),
    });
    let cond = Operand::Reg(COND);
    let blocks = vec![
        block(b0, Terminator::Jump(header)),
        block(
            b1,
            Terminator::Branch {
                cond,
                then_blk: body_blk,
                else_blk: exit,
            },
        ),
        block(
            b2,
            Terminator::Branch {
                cond,
                then_blk,
                else_blk: latch,
            },
        ),
        block(b3, Terminator::Return(None)),
        block(b4, Terminator::Jump(latch)),
        block(b5, Terminator::Jump(header)),
    ];
    let main = Func {
        name: "main".into(),
        n_params: 0,
        n_regs: (ACCS + 3) as usize,
        blocks,
    };
    Program::new(vec![main], Vec::new(), FuncId(0))
}

/// How many pcs of `program` start a fused pair.
fn pairs(program: &Program) -> usize {
    let code = program.code();
    code.fast_ops()
        .iter()
        .filter(|op| op.split().is_some())
        .count()
}

/// Every value-defining instruction of `program` but the input that does
/// not start a fused pair, in site order.
fn unpaired_value_sites(program: &Program) -> Vec<InstrId> {
    let code = program.code();
    let mut sites = Vec::new();
    for (f, func) in program.funcs().iter().enumerate() {
        for (b, blk) in func.blocks.iter().enumerate() {
            for (index, instr) in blk.instrs.iter().enumerate() {
                let id = InstrId {
                    func: FuncId(f as u32),
                    block: BlockId(b as u32),
                    index,
                };
                let starts = code
                    .pc_of(id)
                    .is_some_and(|pc| code.fast_ops()[pc as usize].split().is_some());
                let input = matches!(instr, Instr::Input { .. });
                if instr.dst().is_some() && !starts && !input {
                    sites.push(id);
                }
            }
        }
    }
    sites
}

/// The decoded PT trace of a production run of `program`, which must
/// complete.
fn production(program: &Program, input: u64) -> Vec<TraceEvent> {
    let mut env = Env::new();
    env.push_input(0, &input.to_le_bytes());
    let report = Machine::with_sink(program, env, PtSink::new(PtConfig::default())).run();
    assert!(
        matches!(report.outcome, RunOutcome::Completed),
        "the programs cannot fault: {:?}",
        report.outcome
    );
    report.sink.finish().decode().expect("trace decodes").events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every value and branch the word evaluator produces, fused pairs
    /// included, is the one the shepherded step path produces.
    #[test]
    fn word_evaluator_agrees_with_the_step_path(
        input in any::<u64>(),
        seeds in prop::collection::vec(value(), ACCS as usize),
        body in prop::collection::vec(step(), 0..12),
        test in ((0..PREDS.len()), 0..ACCS, rhs()),
        then in prop::collection::vec(step(), 0..6),
        iters in 0u64..6,
    ) {
        let (p, x, y) = test;
        let plain = build(&seeds, &body, (PREDS[p], x, y), &then, iters);
        let recorded = plain.recording(&unpaired_value_sites(&plain));
        // Both loop tests start a pair, so production runs fused forms.
        prop_assert!(pairs(&plain) >= 2);
        prop_assert_eq!(pairs(&recorded), pairs(&plain), "recording keeps every pair");
        for program in [&plain, &recorded] {
            let events = production(program, input);
            let run = SymMachine::new(program, SymConfig::default()).run(&events, None);
            prop_assert_eq!(&run.status, &ShepherdStatus::Completed);
            prop_assert_eq!(run.stats.word_ops, 0, "every op ran unfused, on the step path");
        }
    }
}
