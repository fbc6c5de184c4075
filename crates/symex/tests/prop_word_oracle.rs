//! Differential property test of the word evaluator (`Op::eval_words`,
//! the one definition of the register-only ops both block loops run,
//! fused pairs included) and of the shepherd's block loop over it, with
//! the interpreter's production run as the reference.
//!
//! Random programs loop over every ALU operation at 64 bits and narrower
//! widths: every specialized 64-bit form, register–register and
//! register–immediate, each alone or followed by a `Mov` of its result
//! (an op→move pair), guarded division, unary ops and casts, with
//! boundary values, shift amounts of 64 and more, and immediates equal to
//! an accumulator's seed. The loop test is a compare→branch pair, and a
//! test on the accumulators at the end of the body branches on the data.
//! Each program runs under PT as written, where a `ptwrite` of every
//! accumulator ends each iteration, and built with `Program::recording`
//! over every value-defining op that does not start a fused pair, which
//! keeps every pair adjacent.
//!
//! Every case builds its program both ways `hold_input` allows, which
//! picks what the shepherd runs:
//!
//! * on, the program reads an input into a register first and keeps it
//!   live to the end. The frame holds a symbolic register throughout, so
//!   every op takes the step path on `Code::ops`, which holds only
//!   generic forms and evaluates through `sym_bin`/`sym_cmp`/`sym_un`: an
//!   evaluator arm or fused form that means something other than its
//!   generic op makes the run diverge instead of completing.
//! * off, the frame is all-concrete and runs on the shepherd's word loop
//!   over `Code::fast_ops`, as production ran: a slip in its pc advance,
//!   site counts, branch checks or refunds diverges, or shows in the
//!   per-site counts, which every build of both programs must agree on.

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
/// condition, the divisor guard and the input register follow them.
const ACCS: u32 = 4;
const COUNTER: Reg = Reg(ACCS);
const COND: Reg = Reg(ACCS + 1);
const GUARD: Reg = Reg(ACCS + 2);
const INPUT: Reg = Reg(ACCS + 3);

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

/// How many of [`KINDS`] have a specialized 64-bit form.
const SPECIALIZED: usize = 15;

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

/// `dst = a kind b` at `width` (a unary op or cast reads `a` alone),
/// then `mov = dst` if `mov` is set.
#[derive(Debug, Clone)]
struct Step {
    kind: Kind,
    width: Width,
    dst: u32,
    a: Src,
    b: Src,
    mov: Option<u32>,
}

impl Step {
    /// Whether the step lowers to an op→move pair: it has a move, and its
    /// op has a specialized form (a 64-bit `Bin` but division, or `Cmp`,
    /// with a register on the left) other than `or a, 0`, which is itself
    /// a `Mov`.
    fn pairs(&self, seeds: &[u64]) -> bool {
        let specialized = match self.kind {
            Kind::Bin(BinOp::UDiv | BinOp::URem) | Kind::Un(_) | Kind::Cast => false,
            Kind::Bin(BinOp::Or) => self.b.operand(seeds) != Operand::Imm(0),
            Kind::Bin(_) | Kind::Cmp(_) => true,
        };
        self.mov.is_some()
            && specialized
            && self.width == Width::W64
            && matches!(self.a, Src::Acc(_))
    }
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

/// An accumulator three times in four, else an immediate: a left operand,
/// which specializes only as a register.
fn left() -> impl Strategy<Value = Src> {
    prop_oneof![
        (0..ACCS).prop_map(Src::Acc),
        (0..ACCS).prop_map(Src::Acc),
        (0..ACCS).prop_map(Src::Acc),
        src(),
    ]
}

/// 64 bits, where the specialized forms and pairs live, three times in
/// four.
fn width() -> impl Strategy<Value = Width> {
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
        (prop_oneof![0..KINDS.len(), 0..SPECIALIZED], width()),
        0..ACCS,
        (left(), src()),
        // A move two times in three.
        prop_oneof![
            (0..ACCS).prop_map(Some),
            (0..ACCS).prop_map(Some),
            Just(None)
        ],
    )
        .prop_map(|((k, width), dst, (a, b), mov)| Step {
            kind: KINDS[k],
            width,
            dst,
            a,
            b,
            mov,
        })
}

fn emit(out: &mut Vec<Instr>, step: &Step, seeds: &[u64]) {
    let (dst, width) = (Reg(step.dst), step.width);
    let (a, mut b) = (step.a.operand(seeds), step.b.operand(seeds));
    if let Kind::Bin(BinOp::UDiv | BinOp::URem) = step.kind {
        // A divisor with its low bit set is nonzero at every width: an
        // immediate so, or a register guarded so.
        b = match b {
            Operand::Imm(v) => Operand::Imm(v | 1),
            Operand::Reg(_) => {
                out.push(Instr::Bin {
                    dst: GUARD,
                    op: BinOp::Or,
                    a: b,
                    b: Operand::Imm(1),
                    width: Width::W64,
                });
                Operand::Reg(GUARD)
            }
        };
    }
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
        Kind::Un(op) => Instr::Un { dst, op, a, width },
        Kind::Cast => Instr::Cast {
            dst,
            a,
            from: width,
        },
    });
    if let Some(mov) = step.mov {
        // The lowering's register move, whose speed form is `Mov`.
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

/// A program that, with `hold_input`, reads [`INPUT`] first and prints it
/// last; seeds the accumulators; then `iters` times runs `body`, and
/// `then` when `r{test.1} test.0 test.2` holds at `test.3`, publishing
/// the accumulators after each iteration and at the end.
fn build(
    hold_input: bool,
    seeds: &[u64],
    body: &[Step],
    test: (CmpOp, u32, Src, Width),
    then: &[Step],
    iters: u64,
) -> Program {
    let (header, body_blk, exit, then_blk, latch) =
        (BlockId(1), BlockId(2), BlockId(3), BlockId(4), BlockId(5));
    let mut b0 = Vec::new();
    if hold_input {
        b0.push(Instr::Input {
            dst: INPUT,
            source: 0,
            width: Width::W64,
        });
    }
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
        emit(&mut b2, s, seeds);
    }
    let (pred, x, y, width) = test;
    b2.push(Instr::Cmp {
        dst: COND,
        pred,
        a: Operand::Reg(Reg(x)),
        b: y.operand(seeds),
        width,
    });
    let mut b4 = Vec::new();
    for s in then {
        emit(&mut b4, s, seeds);
    }
    let mut b5 = publish();
    b5.push(Instr::Bin {
        dst: COUNTER,
        op: BinOp::Add,
        a: Operand::Reg(COUNTER),
        b: Operand::Imm(1),
        width: Width::W64,
    });
    let mut b3 = publish();
    if hold_input {
        // The input stays live to the end, so no frame is all-concrete.
        b3.push(Instr::Print {
            value: Operand::Reg(INPUT),
        });
    }
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
        n_regs: (ACCS + 4) as usize,
        blocks,
    };
    Program::new(vec![main], Vec::new(), FuncId(0))
}

/// The instructions of `program` that start a fused pair.
fn pair_starts(program: &Program) -> Vec<InstrId> {
    let code = program.code();
    (0..code.ops().len() as u32)
        .filter(|&pc| code.fast_ops()[pc as usize].split().is_some())
        .map(|pc| code.id_of(pc))
        .collect()
}

/// Every value-defining instruction of `program` but the input that does
/// not start a fused pair, in site order: every move among them.
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
                let input = matches!(instr, Instr::Input { .. });
                if instr.dst().is_some() && !starts.contains(&id) && !input {
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
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every value and branch the production run computes, fused pairs
    /// included, is the one the shepherded run computes, on the step
    /// path's generic ops with the input held and on the word loop
    /// without, and both count every site alike.
    #[test]
    fn word_evaluator_agrees_with_the_shepherd(
        input in any::<u64>(),
        seeds in prop::collection::vec(value(), ACCS as usize),
        body in prop::collection::vec(step(), 0..12),
        test in ((0..PREDS.len()), 0..ACCS, src(), width()),
        then in prop::collection::vec(step(), 0..6),
        iters in 0u64..6,
    ) {
        let (p, x, y, w) = test;
        let mut counts = Vec::new();
        for hold_input in [false, true] {
            let plain = build(hold_input, &seeds, &body, (PREDS[p], x, y, w), &then, iters);
            let starts = pair_starts(&plain);
            // The loop test, a 64-bit body test and every op→move step
            // start a pair; so may an op followed by an `or` of its result
            // with 0.
            let pairs = body.iter().chain(&then).filter(|s| s.pairs(&seeds)).count();
            prop_assert!(starts.len() >= pairs + 1 + usize::from(w == Width::W64));
            let recorded = plain.recording(&unpaired_value_sites(&plain));
            prop_assert_eq!(pair_starts(&recorded), starts, "recording keeps every pair");
            for program in [&plain, &recorded] {
                let events = production(program, input);
                let ptwrites = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::PtWrite(_)))
                    .count();
                prop_assert!(ptwrites >= ACCS as usize, "the exit publishes every accumulator");
                let run = SymMachine::new(program, SymConfig::default()).run(&events, None);
                prop_assert_eq!(&run.status, &ShepherdStatus::Completed);
                prop_assert_eq!(run.stats.ptw_bound, 0, "no recorded value is symbolic");
                if hold_input {
                    prop_assert_eq!(run.stats.word_ops, 0, "every op ran on the step path");
                } else {
                    prop_assert!(run.stats.word_ops > 0, "the all-concrete frame ran on words");
                }
                // Block 0 reads the input or not, so only its sites differ
                // between the two programs.
                let loop_sites = run.site_counts.iter().filter(|(id, _)| id.block != BlockId(0));
                counts.push(loop_sites.collect::<Vec<_>>());
            }
        }
        // Recording slots are not sites, and the word loop counts as the
        // step path does: every run ran the same sites as often.
        for c in &counts[1..] {
            prop_assert_eq!(c, &counts[0]);
        }
    }
}
