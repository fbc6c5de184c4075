//! Differential property test of the shepherded executor's concrete ALU
//! arms against the interpreter, with `ptwrite`s as the oracle.
//!
//! Random constant-only programs loop over 64-bit and narrower arithmetic,
//! shifts (amounts of 64 and more included) and comparisons on
//! sign-boundary values. Each program runs under PT twice: as written,
//! where a `ptwrite` of every accumulator ends each loop iteration, and
//! built with `Program::recording` over every value-defining site. The
//! interpreter's recorded values are the reference, so an arm that
//! computes a different value diverges with `PayloadMismatch` at its site
//! instead of completing.

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

/// Accumulator registers `r0..r{ACCS}`; the loop counter, the branch
/// condition and the divisor guard follow them.
const ACCS: u32 = 4;
const COUNTER: Reg = Reg(ACCS);
const COND: Reg = Reg(ACCS + 1);
const GUARD: Reg = Reg(ACCS + 2);

/// Values at the edges of each width's unsigned and signed ranges, and
/// shift amounts at and past 64.
const BOUNDARY: [u64; 30] = [
    0,
    1,
    2,
    7,
    31,
    32,
    63,
    64,
    65,
    127,
    128,
    200,
    0xff,
    0x7fff,
    0x8000,
    0xffff,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
    0x1_0000_0000,
    0xffff_ffff_8000_0000,
    i64::MAX as u64,
    i64::MIN as u64,
    i64::MIN as u64 + 1,
    -128i64 as u64,
    -65i64 as u64,
    -64i64 as u64,
    -2i64 as u64,
    -1i64 as u64,
    0x5555_5555_5555_5555,
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Bin(BinOp),
    Cmp(CmpOp),
}

const KINDS: [Kind; 17] = [
    Kind::Bin(BinOp::Add),
    Kind::Bin(BinOp::Sub),
    Kind::Bin(BinOp::Mul),
    Kind::Bin(BinOp::And),
    Kind::Bin(BinOp::Or),
    Kind::Bin(BinOp::Xor),
    Kind::Bin(BinOp::Shl),
    Kind::Bin(BinOp::LShr),
    Kind::Bin(BinOp::AShr),
    Kind::Bin(BinOp::UDiv),
    Kind::Bin(BinOp::URem),
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

/// An operand: an accumulator, an immediate, or an immediate equal to an
/// accumulator's seed, so comparisons see equal operands.
#[derive(Debug, Clone, Copy)]
enum Src {
    Acc(u32),
    Imm(u64),
    Seed(usize),
}

impl Src {
    fn operand(self, seeds: &[u64]) -> Operand {
        match self {
            Src::Acc(r) => Operand::Reg(Reg(r)),
            Src::Imm(v) => Operand::Imm(v),
            Src::Seed(i) => Operand::Imm(seeds[i]),
        }
    }
}

/// `dst = a kind b` at `width`.
#[derive(Debug, Clone)]
struct AluOp {
    kind: Kind,
    dst: u32,
    a: Src,
    b: Src,
    width: Width,
}

fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..BOUNDARY.len()).prop_map(|i| BOUNDARY[i]),
        (0..BOUNDARY.len()).prop_map(|i| BOUNDARY[i]),
        any::<u64>(),
        // `any` keeps the sign bit clear; its complement is negative.
        any::<u64>().prop_map(|v| !v),
    ]
}

/// An accumulator half of the time, else an immediate.
fn src() -> impl Strategy<Value = Src> {
    prop_oneof![
        (0..ACCS).prop_map(Src::Acc),
        (0..ACCS).prop_map(Src::Acc),
        value().prop_map(Src::Imm),
        (0..ACCS as usize).prop_map(Src::Seed),
    ]
}

/// 64 bits (the specialized forms, given a register on the left) half of
/// the time.
fn width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W64),
        Just(Width::W64),
        Just(Width::W64),
        Just(Width::W8),
        Just(Width::W16),
        Just(Width::W32),
    ]
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    ((0..KINDS.len()), 0..ACCS, src(), src(), width()).prop_map(|(k, dst, a, b, width)| AluOp {
        kind: KINDS[k],
        dst,
        a,
        b,
        width,
    })
}

fn emit(out: &mut Vec<Instr>, op: &AluOp, seeds: &[u64]) {
    let (dst, width) = (Reg(op.dst), op.width);
    let (a, b) = (op.a.operand(seeds), op.b.operand(seeds));
    match op.kind {
        Kind::Bin(bop @ (BinOp::UDiv | BinOp::URem)) => {
            // A divisor with its low bit set is nonzero at every width.
            out.push(Instr::Bin {
                dst: GUARD,
                op: BinOp::Or,
                a: b,
                b: Operand::Imm(1),
                width: Width::W64,
            });
            out.push(Instr::Bin {
                dst,
                op: bop,
                a,
                b: Operand::Reg(GUARD),
                width,
            });
        }
        Kind::Bin(bop) => out.push(Instr::Bin {
            dst,
            op: bop,
            a,
            b,
            width,
        }),
        Kind::Cmp(pred) => out.push(Instr::Cmp {
            dst,
            pred,
            a,
            b,
            width,
        }),
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
/// and `then` when `r{test.1} test.0 test.2` holds at `test.3`,
/// publishing the accumulators after each iteration and at the end.
fn build(
    seeds: &[u64],
    body: &[AluOp],
    test: (CmpOp, u32, Src, Width),
    then: &[AluOp],
    iters: u64,
) -> Program {
    // Block 0 seeds the accumulators and jumps to the loop header.
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
    for op in body {
        emit(&mut b2, op, seeds);
    }
    let (pred, x, y, w) = test;
    b2.push(Instr::Cmp {
        dst: COND,
        pred,
        a: Operand::Reg(Reg(x)),
        b: y.operand(seeds),
        width: w,
    });
    let mut b4 = Vec::new();
    for op in then {
        emit(&mut b4, op, seeds);
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
        n_regs: (ACCS + 3) as usize,
        blocks,
    };
    Program::new(vec![main], Vec::new(), FuncId(0))
}

/// Every value-defining instruction of `program`, in site order.
fn value_sites(program: &Program) -> Vec<InstrId> {
    let mut sites = Vec::new();
    for (f, func) in program.funcs().iter().enumerate() {
        for (b, blk) in func.blocks.iter().enumerate() {
            for (index, instr) in blk.instrs.iter().enumerate() {
                if instr.dst().is_some() {
                    sites.push(InstrId {
                        func: FuncId(f as u32),
                        block: BlockId(b as u32),
                        index,
                    });
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

    /// Every concrete value the shepherded run computes is the one the
    /// production run recorded.
    #[test]
    fn concrete_arms_agree_with_the_interpreter(
        seeds in prop::collection::vec(value(), ACCS as usize),
        body in prop::collection::vec(alu_op(), 0..12),
        test in ((0..PREDS.len()), 0..ACCS, src(), width()),
        then in prop::collection::vec(alu_op(), 0..6),
        iters in 0u64..6,
    ) {
        let (p, x, y, w) = test;
        let plain = build(&seeds, &body, (PREDS[p], x, y, w), &then, iters);
        let recorded = plain.recording(&value_sites(&plain));
        let mut counts = Vec::new();
        for program in [&plain, &recorded] {
            let events = production(program);
            let ptwrites = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::PtWrite(_)))
                .count();
            prop_assert!(ptwrites >= ACCS as usize, "the exit publishes every accumulator");
            let run = SymMachine::new(program, SymConfig::default()).run(&events, None);
            prop_assert_eq!(&run.status, &ShepherdStatus::Completed);
            prop_assert_eq!(run.stats.ptw_bound, 0, "nothing is symbolic");
            counts.push(run.site_counts.iter().collect::<Vec<_>>());
        }
        // Recording slots are not sites: both builds ran the same sites as
        // often.
        prop_assert_eq!(&counts[0], &counts[1]);
    }
}
