//! Differential property test of the interpreter's fused pairs against the
//! shepherded executor, which runs the unfused ops.
//!
//! Random constant-only programs loop over every specialized 64-bit ALU
//! form, register–register and register–immediate, each either alone or
//! followed by a `Mov` of its result (an op→move pair), on boundary values
//! and shift amounts of 64 and more. The loop test and a test on the
//! accumulators at the end of the body are compare→branch pairs. Each
//! program runs under PT twice: as written, where a `ptwrite` of every
//! accumulator ends each iteration, and built with `Program::recording`
//! over every `Mov` and every value-defining op that does not start a
//! pair, which keeps every pair adjacent. A fused form that computes,
//! writes or branches differently from its two ops makes the shepherded
//! run diverge instead of completing.

use er_minilang::code::Op;
use er_minilang::env::Env;
use er_minilang::interp::{Machine, RunOutcome};
use er_minilang::ir::{
    Block, BlockId, Func, FuncId, Instr, InstrId, Operand, Program, Reg, Terminator,
};
use er_minilang::value::{BinOp, CmpOp, Width};
use er_pt::packet::TraceEvent;
use er_pt::sink::{PtConfig, PtSink};
use er_symex::{ShepherdStatus, SymConfig, SymMachine};
use proptest::prelude::*;

/// Accumulator registers `r0..r{ACCS}`; the loop counter and the branch
/// condition follow them.
const ACCS: u32 = 4;
const COUNTER: Reg = Reg(ACCS);
const COND: Reg = Reg(ACCS + 1);

/// Sign and width boundaries, and shift amounts at and past 64.
const BOUNDARY: [u64; 16] = [
    0,
    1,
    2,
    31,
    63,
    64,
    65,
    127,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
    i64::MAX as u64,
    i64::MIN as u64,
    -64i64 as u64,
    -2i64 as u64,
    -1i64 as u64,
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Bin(BinOp),
    Cmp(CmpOp),
}

/// Every operation with a specialized 64-bit form.
const KINDS: [Kind; 15] = [
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
];

const PREDS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Ult,
    CmpOp::Ule,
    CmpOp::Slt,
    CmpOp::Sle,
];

/// A right operand: an accumulator or an immediate.
#[derive(Debug, Clone, Copy)]
enum Src {
    Acc(u32),
    Imm(u64),
}

impl Src {
    fn operand(self) -> Operand {
        match self {
            Src::Acc(r) => Operand::Reg(Reg(r)),
            Src::Imm(v) => Operand::Imm(v),
        }
    }
}

/// `dst = a kind b` at 64 bits, then `mov = dst` if `mov` is set.
#[derive(Debug, Clone)]
struct Step {
    kind: Kind,
    dst: u32,
    a: u32,
    b: Src,
    mov: Option<u32>,
}

impl Step {
    /// Whether the step lowers to an op→move pair: it has a move, and its
    /// op is not itself `or a, 0`, which lowers to a `Mov`.
    fn pairs(&self) -> bool {
        self.mov.is_some() && !matches!((self.kind, self.b), (Kind::Bin(BinOp::Or), Src::Imm(0)))
    }
}

fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..BOUNDARY.len()).prop_map(|i| BOUNDARY[i]),
        any::<u64>(),
        any::<u64>().prop_map(|v| !v),
    ]
}

fn src() -> impl Strategy<Value = Src> {
    prop_oneof![(0..ACCS).prop_map(Src::Acc), value().prop_map(Src::Imm)]
}

fn step() -> impl Strategy<Value = Step> {
    (
        0..KINDS.len(),
        0..ACCS,
        0..ACCS,
        src(),
        // A move two times in three.
        prop_oneof![
            (0..ACCS).prop_map(Some),
            (0..ACCS).prop_map(Some),
            Just(None)
        ],
    )
        .prop_map(|(k, dst, a, b, mov)| Step {
            kind: KINDS[k],
            dst,
            a,
            b,
            mov,
        })
}

fn emit(out: &mut Vec<Instr>, step: &Step) {
    let (dst, a, b, width) = (
        Reg(step.dst),
        Operand::Reg(Reg(step.a)),
        step.b.operand(),
        Width::W64,
    );
    out.push(match step.kind {
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
    });
    if let Some(mov) = step.mov {
        // The lowering's register move, which flat code calls `Mov`.
        out.push(Instr::Bin {
            dst: Reg(mov),
            op: BinOp::Or,
            a: Operand::Reg(dst),
            b: Operand::Imm(0),
            width,
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

/// A program that seeds the accumulators, then `iters` times runs `body`,
/// and `then` when `r{test.1} test.0 test.2` holds, publishing the
/// accumulators after each iteration and at the end.
fn build(
    seeds: &[u64],
    body: &[Step],
    test: (CmpOp, u32, Src),
    then: &[Step],
    iters: u64,
) -> Program {
    let (header, body_blk, exit, then_blk, latch) =
        (BlockId(1), BlockId(2), BlockId(3), BlockId(4), BlockId(5));
    let mut b0: Vec<Instr> = seeds
        .iter()
        .enumerate()
        .map(|(r, &value)| Instr::Const {
            dst: Reg(r as u32),
            value,
        })
        .collect();
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
        b: y.operand(),
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
        block(publish(), Terminator::Return(None)),
        block(b4, Terminator::Jump(latch)),
        block(b5, Terminator::Jump(header)),
    ];
    let main = Func {
        name: "main".into(),
        n_params: 0,
        n_regs: (ACCS + 2) as usize,
        blocks,
    };
    Program::new(vec![main], Vec::new(), FuncId(0))
}

/// The pcs of `program` that start a fused pair.
fn pair_starts(program: &Program) -> Vec<InstrId> {
    let code = program.code();
    (0..code.ops().len() as u32)
        .filter(|&pc| code.fast_ops()[pc as usize].split().is_some())
        .map(|pc| code.id_of(pc))
        .collect()
}

/// Every value-defining instruction of `program` that does not start a
/// fused pair, in site order: every `Mov` among them.
fn unpaired_value_sites(program: &Program) -> Vec<InstrId> {
    let starts = pair_starts(program);
    let mut sites = Vec::new();
    for (f, func) in program.funcs().iter().enumerate() {
        for (b, blk) in func.blocks.iter().enumerate() {
            for (index, instr) in blk.instrs.iter().enumerate() {
                let id = InstrId {
                    func: FuncId(f as u32),
                    block: BlockId(b as u32),
                    index,
                };
                if instr.dst().is_some() && !starts.contains(&id) {
                    sites.push(id);
                }
            }
        }
    }
    sites
}

/// The decoded PT trace of a production run of `program`, which must
/// complete.
fn production(program: &Program) -> Vec<TraceEvent> {
    let report = Machine::with_sink(program, Env::new(), PtSink::new(PtConfig::default())).run();
    assert!(
        matches!(report.outcome, RunOutcome::Completed),
        "constant-only programs cannot fault: {:?}",
        report.outcome
    );
    report.sink.finish().decode().expect("trace decodes").events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every value and branch the interpreter's fused pairs produce is the
    /// one their two ops produce in the shepherded run.
    #[test]
    fn fused_pairs_agree_with_their_ops(
        seeds in prop::collection::vec(value(), ACCS as usize),
        body in prop::collection::vec(step(), 0..12),
        test in ((0..PREDS.len()), 0..ACCS, src()),
        then in prop::collection::vec(step(), 0..6),
        iters in 0u64..6,
    ) {
        let (p, x, y) = test;
        let plain = build(&seeds, &body, (PREDS[p], x, y), &then, iters);
        let pairs = body.iter().chain(&then).filter(|s| s.pairs()).count();
        let starts = pair_starts(&plain);
        // Both loop tests and every op→move step start a pair; so may an
        // op followed by an `or` of its result with 0.
        prop_assert!(starts.len() >= pairs + 2);
        let recorded = plain.recording(&unpaired_value_sites(&plain));
        prop_assert_eq!(pair_starts(&recorded), starts, "recording keeps every pair");
        for program in [&plain, &recorded] {
            let events = production(program);
            let run = SymMachine::new(program, SymConfig::default()).run(&events, None);
            prop_assert_eq!(&run.status, &ShepherdStatus::Completed);
        }
        let ops = recorded.code().fast_ops();
        prop_assert!(ops.iter().all(|op| !matches!(op, Op::Bin { .. } | Op::Cmp { .. })));
    }
}
