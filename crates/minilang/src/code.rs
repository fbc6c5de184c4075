//! Flat code: a [`Program`](crate::ir::Program) lowered once into one
//! program-wide instruction array that both executors dispatch on.
//!
//! Every instruction and every block terminator gets one slot, laid out
//! function by function and block by block (a block's instructions, then
//! its terminator), so a program counter ([`Pc`]) is a single index and
//! pc order is [`InstrId`] order. A recorded build (paper §3.3.3) adds a
//! *recording slot* — an [`Op::PtWrite`] of the destination register —
//! after each recorded instruction, carrying that instruction's id, so the
//! IR itself never changes. Lowering pre-resolves everything that does not
//! change at run time:
//!
//! * jump and branch targets are absolute pcs;
//! * `GlobalAddr` becomes a [`Op::Const`] of the global's address;
//! * calls and spawns carry their callee's entry pc and frame size in a
//!   side table, and assert/abort messages live in another, so [`Op`]
//!   stays `Copy`.
//!
//! [`Code::ops`] is the program's meaning: one op per IR instruction, in
//! the IR's own generic form, so every `Instr::Bin`/`Instr::Cmp` is an
//! [`Op::Bin`]/[`Op::Cmp`] there whatever its width and operands. The
//! symbolic executor's step path, failure constraints and every other
//! reader of the code see only these.
//!
//! [`Code::fast_ops`] is the interpreter's speed encoding of the same
//! array, for the loops that run a block whole whenever their budget
//! allows (the interpreter's, and the symbolic executor's over an
//! all-concrete frame). It is derived from `ops()` by two steps and
//! nothing else. [`Op::specialize`] turns the common 64-bit forms into
//! `<op>RR`/`<op>RI` forms by operand kind (register–register,
//! register–immediate), so a hot arm is one register-file access per
//! operand with no operand-kind or width match, and `or r, 0` at 64 bits
//! (the lowering's register move) into [`Op::Mov`]. [`Op::fuse`] then
//! fuses adjacent pairs into one op: a specialized ALU form and the `Mov`
//! of its result, or a specialized compare and the block's `Branch` on
//! it. [`Code::run_lens`] says what running the rest of a block costs.
//! Both arrays run on [`Op::eval_words`], so a speed form means exactly
//! what its generic op (or its two ops) mean there.
//!
//! [`InstrId`]s of the unchanged IR are the program's one coordinate
//! space: failure reports, trace sites and snapshots use them whatever
//! the build records, and [`Code::id_of`] / [`Code::pc_of`] convert where
//! they are observable.

use crate::ir::{BlockId, Func, FuncId, Global, Instr, InstrId, Operand, Reg, Terminator};
use crate::value::{BinOp, CmpOp, UnOp, Width};

/// A program counter: an index into [`Code::ops`].
pub type Pc = u32;

/// One flat instruction. The speed forms of [`Code::fast_ops`] follow the
/// generic ones: specialized 64-bit forms are named `<op>RR`
/// (`dst = a op b`) and `<op>RI` (`dst = a op imm`), and fused pairs
/// `<op>Mov`/`<op>Branch`. Every field means what it means on the IR
/// [`Instr`] the form lowers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst = value`; also every `GlobalAddr`.
    Const {
        dst: Reg,
        value: u64,
    },
    // Specialized forms: speed forms that appear in [`Code::fast_ops`],
    // never in [`Code::ops`] (see [`Op::specialize`]).
    /// `dst = src`: the speed form of the 64-bit `or src, 0` lowering
    /// emits for moves.
    Mov {
        dst: Reg,
        src: Reg,
    },
    AddRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    AddRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    SubRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    SubRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    MulRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    MulRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    AndRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    AndRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    OrRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    OrRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    XorRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    XorRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    ShlRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    ShlRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    LShrRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    LShrRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    AShrRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    AShrRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    EqRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    EqRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    NeRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    NeRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    UltRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    UltRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    UleRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    UleRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    SltRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    SltRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    SleRR {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    SleRI {
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    /// Every [`Instr::Bin`].
    Bin {
        dst: Reg,
        op: BinOp,
        a: Operand,
        b: Operand,
        width: Width,
    },
    /// Every [`Instr::Cmp`].
    Cmp {
        dst: Reg,
        pred: CmpOp,
        a: Operand,
        b: Operand,
        width: Width,
    },
    Un {
        dst: Reg,
        op: UnOp,
        a: Operand,
        width: Width,
    },
    Cast {
        dst: Reg,
        a: Operand,
        from: Width,
    },
    Load {
        dst: Reg,
        addr: Operand,
        width: Width,
    },
    Store {
        addr: Operand,
        value: Operand,
        width: Width,
    },
    StackAlloc {
        dst: Reg,
        size: u64,
    },
    Alloc {
        dst: Reg,
        size: Operand,
    },
    Free {
        addr: Operand,
    },
    /// Direct call; `site` indexes [`Code::call_site`].
    Call {
        site: u32,
    },
    /// Thread start; `site` indexes [`Code::call_site`] (whose `dst` is
    /// always set).
    Spawn {
        site: u32,
    },
    Input {
        dst: Reg,
        source: u32,
        width: Width,
    },
    Clock {
        dst: Reg,
    },
    PtWrite {
        value: Operand,
    },
    Print {
        value: Operand,
    },
    Join {
        tid: Operand,
    },
    Lock {
        lock: Operand,
    },
    Unlock {
        lock: Operand,
    },
    /// `message` indexes [`Code::message`].
    Assert {
        cond: Operand,
        message: u32,
    },
    /// `message` indexes [`Code::message`].
    Abort {
        message: u32,
    },
    Jump {
        to: Pc,
    },
    Branch {
        cond: Operand,
        then_pc: Pc,
        else_pc: Pc,
    },
    Return {
        value: Option<Operand>,
    },
    // Fused pairs: block-loop-only forms that appear in
    // [`Code::fast_ops`], never in [`Code::ops`]. Each runs a specialized
    // ALU form and the op after it in one dispatch, writing both.
    AddRRMov(MovPair<Reg>),
    AddRIMov(MovPair<u64>),
    SubRRMov(MovPair<Reg>),
    SubRIMov(MovPair<u64>),
    MulRRMov(MovPair<Reg>),
    MulRIMov(MovPair<u64>),
    AndRRMov(MovPair<Reg>),
    AndRIMov(MovPair<u64>),
    OrRRMov(MovPair<Reg>),
    OrRIMov(MovPair<u64>),
    XorRRMov(MovPair<Reg>),
    XorRIMov(MovPair<u64>),
    ShlRRMov(MovPair<Reg>),
    ShlRIMov(MovPair<u64>),
    LShrRRMov(MovPair<Reg>),
    LShrRIMov(MovPair<u64>),
    AShrRRMov(MovPair<Reg>),
    AShrRIMov(MovPair<u64>),
    EqRRMov(MovPair<Reg>),
    EqRIMov(MovPair<u64>),
    NeRRMov(MovPair<Reg>),
    NeRIMov(MovPair<u64>),
    UltRRMov(MovPair<Reg>),
    UltRIMov(MovPair<u64>),
    UleRRMov(MovPair<Reg>),
    UleRIMov(MovPair<u64>),
    SltRRMov(MovPair<Reg>),
    SltRIMov(MovPair<u64>),
    SleRRMov(MovPair<Reg>),
    SleRIMov(MovPair<u64>),
    EqRRBranch(BranchPair<Reg>),
    EqRIBranch(BranchPair<u64>),
    NeRRBranch(BranchPair<Reg>),
    NeRIBranch(BranchPair<u64>),
    UltRRBranch(BranchPair<Reg>),
    UltRIBranch(BranchPair<u64>),
    UleRRBranch(BranchPair<Reg>),
    UleRIBranch(BranchPair<u64>),
    SltRRBranch(BranchPair<Reg>),
    SltRIBranch(BranchPair<u64>),
    SleRRBranch(BranchPair<Reg>),
    SleRIBranch(BranchPair<u64>),
}

// Fused forms must not make every slot of both arrays bigger.
const _: () = assert!(std::mem::size_of::<Op>() <= 40);

/// A specialized ALU form fused with the `Mov` after it that copies its
/// result: `dst = a op b; mov = dst`. `B` is the right operand, a
/// register (`<op>RRMov`) or an immediate (`<op>RIMov`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovPair<B> {
    /// The ALU form's destination.
    pub dst: Reg,
    /// Left operand.
    pub a: Reg,
    /// Right operand.
    pub b: B,
    /// The `Mov`'s destination.
    pub mov: Reg,
}

/// A specialized compare fused with the block's `Branch` on its result:
/// `dst = a pred b; if dst goto then_pc else else_pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPair<B> {
    /// The compare's destination, which is the branch condition.
    pub dst: Reg,
    /// Left operand.
    pub a: Reg,
    /// Right operand.
    pub b: B,
    /// Where the branch goes when the compare holds.
    pub then_pc: Pc,
    /// Where it goes otherwise.
    pub else_pc: Pc,
}

/// Defines [`Op::fuse`] and [`Op::split`] from one table of the fused
/// forms. `first field => fused` fuses the specialized form `first`, whose
/// right operand is `field`, with a following `Mov` (in `mov`) or
/// `Branch` (in `branch`).
macro_rules! fused_pairs {
    (
        mov: [$($mf:ident $mb:ident => $mp:ident),* $(,)?],
        branch: [$($bf:ident $bb:ident => $bp:ident),* $(,)?] $(,)?
    ) => {
        impl Op {
            /// The fused form of `first` followed by `second`: a
            /// specialized ALU form and a `Mov` of its destination, or a
            /// specialized compare and a `Branch` on its destination.
            pub fn fuse(first: Op, second: Op) -> Option<Op> {
                match (first, second) {
                    $(
                        (Op::$mf { dst, a, $mb: b }, Op::Mov { dst: mov, src }) if src == dst => {
                            Some(Op::$mp(MovPair { dst, a, b, mov }))
                        }
                    )*
                    $(
                        (
                            Op::$bf { dst, a, $bb: b },
                            Op::Branch { cond: Operand::Reg(cond), then_pc, else_pc },
                        ) if cond == dst => {
                            Some(Op::$bp(BranchPair { dst, a, b, then_pc, else_pc }))
                        }
                    )*
                    _ => None,
                }
            }

            /// The two ops a fused form runs, or `None` for every other op.
            pub fn split(self) -> Option<(Op, Op)> {
                match self {
                    $(
                        Op::$mp(MovPair { dst, a, b, mov }) => Some((
                            Op::$mf { dst, a, $mb: b },
                            Op::Mov { dst: mov, src: dst },
                        )),
                    )*
                    $(
                        Op::$bp(BranchPair { dst, a, b, then_pc, else_pc }) => Some((
                            Op::$bf { dst, a, $bb: b },
                            Op::Branch { cond: Operand::Reg(dst), then_pc, else_pc },
                        )),
                    )*
                    _ => None,
                }
            }
        }
    };
}

fused_pairs! {
    mov: [
        AddRR b => AddRRMov, AddRI imm => AddRIMov,
        SubRR b => SubRRMov, SubRI imm => SubRIMov,
        MulRR b => MulRRMov, MulRI imm => MulRIMov,
        AndRR b => AndRRMov, AndRI imm => AndRIMov,
        OrRR b => OrRRMov, OrRI imm => OrRIMov,
        XorRR b => XorRRMov, XorRI imm => XorRIMov,
        ShlRR b => ShlRRMov, ShlRI imm => ShlRIMov,
        LShrRR b => LShrRRMov, LShrRI imm => LShrRIMov,
        AShrRR b => AShrRRMov, AShrRI imm => AShrRIMov,
        EqRR b => EqRRMov, EqRI imm => EqRIMov,
        NeRR b => NeRRMov, NeRI imm => NeRIMov,
        UltRR b => UltRRMov, UltRI imm => UltRIMov,
        UleRR b => UleRRMov, UleRI imm => UleRIMov,
        SltRR b => SltRRMov, SltRI imm => SltRIMov,
        SleRR b => SleRRMov, SleRI imm => SleRIMov,
    ],
    branch: [
        EqRR b => EqRRBranch, EqRI imm => EqRIBranch,
        NeRR b => NeRRBranch, NeRI imm => NeRIBranch,
        UltRR b => UltRRBranch, UltRI imm => UltRIBranch,
        UleRR b => UleRRBranch, UleRI imm => UleRIBranch,
        SltRR b => SltRRBranch, SltRI imm => SltRIBranch,
        SleRR b => SleRRBranch, SleRI imm => SleRIBranch,
    ],
}

impl Op {
    /// The block loops' speed form of `self`: a 64-bit `Bin` or `Cmp` with
    /// a register left operand becomes its `<op>RR`/`<op>RI` form, and `or
    /// r, 0` becomes [`Op::Mov`]. Every other op, division included (it
    /// keeps the generic form for its divide-by-zero fault), is its own.
    #[inline]
    pub fn specialize(self) -> Op {
        match self {
            Op::Bin {
                dst,
                op,
                a: Operand::Reg(a),
                b,
                width: Width::W64,
            } => match (op, b) {
                (BinOp::Or, Operand::Imm(0)) => Op::Mov { dst, src: a },
                (BinOp::Add, Operand::Reg(b)) => Op::AddRR { dst, a, b },
                (BinOp::Add, Operand::Imm(imm)) => Op::AddRI { dst, a, imm },
                (BinOp::Sub, Operand::Reg(b)) => Op::SubRR { dst, a, b },
                (BinOp::Sub, Operand::Imm(imm)) => Op::SubRI { dst, a, imm },
                (BinOp::Mul, Operand::Reg(b)) => Op::MulRR { dst, a, b },
                (BinOp::Mul, Operand::Imm(imm)) => Op::MulRI { dst, a, imm },
                (BinOp::And, Operand::Reg(b)) => Op::AndRR { dst, a, b },
                (BinOp::And, Operand::Imm(imm)) => Op::AndRI { dst, a, imm },
                (BinOp::Or, Operand::Reg(b)) => Op::OrRR { dst, a, b },
                (BinOp::Or, Operand::Imm(imm)) => Op::OrRI { dst, a, imm },
                (BinOp::Xor, Operand::Reg(b)) => Op::XorRR { dst, a, b },
                (BinOp::Xor, Operand::Imm(imm)) => Op::XorRI { dst, a, imm },
                (BinOp::Shl, Operand::Reg(b)) => Op::ShlRR { dst, a, b },
                (BinOp::Shl, Operand::Imm(imm)) => Op::ShlRI { dst, a, imm },
                (BinOp::LShr, Operand::Reg(b)) => Op::LShrRR { dst, a, b },
                (BinOp::LShr, Operand::Imm(imm)) => Op::LShrRI { dst, a, imm },
                (BinOp::AShr, Operand::Reg(b)) => Op::AShrRR { dst, a, b },
                (BinOp::AShr, Operand::Imm(imm)) => Op::AShrRI { dst, a, imm },
                (BinOp::UDiv | BinOp::URem, _) => self,
            },
            Op::Cmp {
                dst,
                pred,
                a: Operand::Reg(a),
                b,
                width: Width::W64,
            } => match (pred, b) {
                (CmpOp::Eq, Operand::Reg(b)) => Op::EqRR { dst, a, b },
                (CmpOp::Eq, Operand::Imm(imm)) => Op::EqRI { dst, a, imm },
                (CmpOp::Ne, Operand::Reg(b)) => Op::NeRR { dst, a, b },
                (CmpOp::Ne, Operand::Imm(imm)) => Op::NeRI { dst, a, imm },
                (CmpOp::Ult, Operand::Reg(b)) => Op::UltRR { dst, a, b },
                (CmpOp::Ult, Operand::Imm(imm)) => Op::UltRI { dst, a, imm },
                (CmpOp::Ule, Operand::Reg(b)) => Op::UleRR { dst, a, b },
                (CmpOp::Ule, Operand::Imm(imm)) => Op::UleRI { dst, a, imm },
                (CmpOp::Slt, Operand::Reg(b)) => Op::SltRR { dst, a, b },
                (CmpOp::Slt, Operand::Imm(imm)) => Op::SltRI { dst, a, imm },
                (CmpOp::Sle, Operand::Reg(b)) => Op::SleRR { dst, a, b },
                (CmpOp::Sle, Operand::Imm(imm)) => Op::SleRI { dst, a, imm },
            },
            _ => self,
        }
    }
}

/// A call or spawn site, pre-resolved against its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Receives the return value (call) or the new thread id (spawn).
    pub dst: Option<Reg>,
    /// The callee.
    pub func: FuncId,
    /// The callee's entry pc.
    pub entry: Pc,
    /// The callee's frame size in registers.
    pub n_regs: usize,
    /// The callee's parameter count.
    pub n_params: usize,
    /// Argument operands, in parameter order.
    pub args: Box<[Operand]>,
}

/// A program's flat code. Built by [`Code::build`] whenever a
/// [`Program`](crate::ir::Program) is constructed, never per run; clones
/// of a program share it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Code {
    ops: Vec<Op>,
    /// The program entry function's first pc.
    entry: Pc,
    /// `ids[pc]` is the slot's IR coordinate; a recording slot repeats
    /// its instruction's.
    ids: Vec<InstrId>,
    /// First pc of every block, program-wide in layout order, plus a
    /// final `ops.len()` sentinel: a block's terminator sits one before
    /// the next block's start.
    block_start: Vec<Pc>,
    /// Index into `block_start` of each function's block 0, plus a final
    /// sentinel.
    func_block: Vec<u32>,
    calls: Vec<CallSite>,
    messages: Vec<String>,
    /// `ops` specialized, with each fused pair's first slot holding its
    /// fused form.
    fast: Vec<Op>,
    /// `run_len[pc]`: the ops from `pc` through its block's terminator,
    /// inclusive.
    run_len: Vec<u32>,
}

impl Code {
    /// Lowers `funcs` (with `globals` for `GlobalAddr`) into flat code
    /// that starts at function `entry`, recording the value of each
    /// `recorded` instruction: an [`Op::PtWrite`] of its destination
    /// register follows it in a recording slot of its own.
    ///
    /// # Panics
    ///
    /// Panics if a block has no terminator, a jump, call or global
    /// reference names something that does not exist, or `recorded` is not
    /// strictly ascending value-defining instructions of `funcs`.
    pub fn build(funcs: &[Func], globals: &[Global], entry: FuncId, recorded: &[InstrId]) -> Code {
        let mut code = Code::default();
        // Pass 1: layout, so pass 2 can resolve targets to absolute pcs.
        let mut pc: Pc = 0;
        let mut rest = recorded;
        for (fi, f) in funcs.iter().enumerate() {
            code.func_block.push(code.block_start.len() as u32);
            for (bi, b) in f.blocks.iter().enumerate() {
                let n = in_block(&mut rest, FuncId(fi as u32), BlockId(bi as u32)).len();
                code.block_start.push(pc);
                pc += (b.instrs.len() + n) as Pc + 1;
            }
        }
        assert!(
            rest.is_empty(),
            "recorded sites are in the program's blocks"
        );
        code.func_block.push(code.block_start.len() as u32);
        code.block_start.push(pc);
        if !funcs.is_empty() {
            code.entry = code.entry_pc(entry);
        }
        code.ops.reserve(pc as usize);
        code.ids.reserve(pc as usize);

        let mut rest = recorded;
        for (fi, f) in funcs.iter().enumerate() {
            let func = FuncId(fi as u32);
            for (bi, b) in f.blocks.iter().enumerate() {
                let block = BlockId(bi as u32);
                let mut records = in_block(&mut rest, func, block);
                for (index, instr) in b.instrs.iter().enumerate() {
                    let op = code.lower(instr, funcs, globals);
                    let id = InstrId { func, block, index };
                    code.ops.push(op);
                    code.ids.push(id);
                    if let [next, tail @ ..] = records {
                        if next.index == index {
                            let dst = instr.dst().expect("a recorded site defines a value");
                            code.ops.push(Op::PtWrite {
                                value: Operand::Reg(dst),
                            });
                            code.ids.push(id);
                            records = tail;
                        }
                    }
                }
                assert!(records.is_empty(), "recorded sites are instructions");
                let term = b.term.as_ref().expect("lowering terminates every block");
                let target = |b: BlockId| code.block_pc(func, b).expect("jump target exists");
                let op = match *term {
                    Terminator::Jump(to) => Op::Jump { to: target(to) },
                    Terminator::Branch {
                        cond,
                        then_blk,
                        else_blk,
                    } => Op::Branch {
                        cond,
                        then_pc: target(then_blk),
                        else_pc: target(else_blk),
                    },
                    Terminator::Return(value) => Op::Return { value },
                };
                code.ops.push(op);
                code.ids.push(InstrId {
                    func,
                    block,
                    index: InstrId::TERMINATOR,
                });
            }
        }
        debug_assert_eq!(code.ops.len(), pc as usize, "layout and lowering agree");
        code.fuse_pairs();
        code
    }

    /// Fills the block loops' fast array and run lengths: every op's
    /// [`Op::specialize`] form, with adjacent pairs fused ([`Op::fuse`]).
    /// A pair's first op is an ALU form, never a terminator, so no pair
    /// crosses a block, and a recording slot is a `PtWrite`, so none is
    /// part of a pair.
    fn fuse_pairs(&mut self) {
        self.fast = self.ops.clone();
        for op in &mut self.fast {
            *op = op.specialize();
        }
        let mut pc = 1;
        while pc < self.fast.len() {
            // Only a `Mov` or a `Branch` ends a pair.
            if matches!(self.fast[pc], Op::Mov { .. } | Op::Branch { .. }) {
                if let Some(fused) = Op::fuse(self.fast[pc - 1], self.fast[pc]) {
                    self.fast[pc - 1] = fused;
                    pc += 1;
                }
            }
            pc += 1;
        }
        self.run_len = Vec::with_capacity(self.ops.len());
        for w in self.block_start.windows(2) {
            self.run_len.extend((w[0]..w[1]).map(|pc| w[1] - pc));
        }
    }

    fn lower(&mut self, instr: &Instr, funcs: &[Func], globals: &[Global]) -> Op {
        match instr {
            &Instr::Const { dst, value } => Op::Const { dst, value },
            &Instr::Bin {
                dst,
                op,
                a,
                b,
                width,
            } => Op::Bin {
                dst,
                op,
                a,
                b,
                width,
            },
            &Instr::Cmp {
                dst,
                pred,
                a,
                b,
                width,
            } => Op::Cmp {
                dst,
                pred,
                a,
                b,
                width,
            },
            &Instr::Un { dst, op, a, width } => Op::Un { dst, op, a, width },
            &Instr::Cast { dst, a, from } => Op::Cast { dst, a, from },
            &Instr::Load { dst, addr, width } => Op::Load { dst, addr, width },
            &Instr::Store { addr, value, width } => Op::Store { addr, value, width },
            &Instr::GlobalAddr { dst, global } => Op::Const {
                dst,
                value: globals[global.0 as usize].addr,
            },
            &Instr::StackAlloc { dst, size } => Op::StackAlloc { dst, size },
            &Instr::Alloc { dst, size } => Op::Alloc { dst, size },
            &Instr::Free { addr } => Op::Free { addr },
            Instr::Call { dst, func, args } => Op::Call {
                site: self.add_call_site(*dst, *func, args, funcs),
            },
            Instr::Spawn { dst, func, args } => Op::Spawn {
                site: self.add_call_site(Some(*dst), *func, args, funcs),
            },
            &Instr::Input { dst, source, width } => Op::Input { dst, source, width },
            &Instr::Clock { dst } => Op::Clock { dst },
            &Instr::PtWrite { value } => Op::PtWrite { value },
            &Instr::Print { value } => Op::Print { value },
            &Instr::Join { tid } => Op::Join { tid },
            &Instr::Lock { lock } => Op::Lock { lock },
            &Instr::Unlock { lock } => Op::Unlock { lock },
            Instr::Assert { cond, message } => Op::Assert {
                cond: *cond,
                message: self.add_message(message),
            },
            Instr::Abort { message } => Op::Abort {
                message: self.add_message(message),
            },
        }
    }

    fn add_call_site(
        &mut self,
        dst: Option<Reg>,
        func: FuncId,
        args: &[Operand],
        funcs: &[Func],
    ) -> u32 {
        let callee = &funcs[func.0 as usize];
        self.calls.push(CallSite {
            dst,
            func,
            entry: self.entry_pc(func),
            n_regs: callee.n_regs,
            n_params: callee.n_params,
            args: args.into(),
        });
        (self.calls.len() - 1) as u32
    }

    fn add_message(&mut self, message: &str) -> u32 {
        self.messages.push(message.to_string());
        (self.messages.len() - 1) as u32
    }

    /// The program entry function's first pc.
    pub fn entry(&self) -> Pc {
        self.entry
    }

    /// The instruction array: the program's meaning, every ALU op in its
    /// generic form.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The block loops' dispatch array, indexed like [`Code::ops`]: the
    /// first slot of each fused pair holds the fused form (see
    /// [`Op::fuse`]), and every other slot the op's [`Op::specialize`]
    /// form, so a run may enter it at any pc. Only a run that executes the rest of a block
    /// without stopping may use it.
    #[inline]
    pub fn fast_ops(&self) -> &[Op] {
        &self.fast
    }

    /// `run_lens()[pc]` is the number of ops from `pc` through its block's
    /// terminator, inclusive: what running the rest of the block costs.
    #[inline]
    pub fn run_lens(&self) -> &[u32] {
        &self.run_len
    }

    /// The call or spawn site `site` of an [`Op::Call`] / [`Op::Spawn`].
    #[inline]
    pub fn call_site(&self, site: u32) -> &CallSite {
        &self.calls[site as usize]
    }

    /// The message `message` of an [`Op::Assert`] / [`Op::Abort`].
    pub fn message(&self, message: u32) -> &str {
        &self.messages[message as usize]
    }

    /// The IR coordinate of the slot at `pc`; block terminators map to
    /// [`InstrId::TERMINATOR`], and a recording slot to the instruction it
    /// records.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn id_of(&self, pc: Pc) -> InstrId {
        self.ids[pc as usize]
    }

    /// The slot of `id` — for a recorded instruction, the instruction's
    /// own slot, not its recording slot — or `None` if the program has no
    /// such instruction or terminator.
    pub fn pc_of(&self, id: InstrId) -> Option<Pc> {
        let i = self.block_index(id.func, id.block)?;
        let (start, term) = (self.block_start[i], self.block_start[i + 1] - 1);
        if id.index == InstrId::TERMINATOR {
            return Some(term);
        }
        let body = &self.ids[start as usize..term as usize];
        let k = body.partition_point(|s| s.index < id.index);
        (body.get(k)?.index == id.index).then_some(start + k as Pc)
    }

    /// Whether `pc` is a recording slot: the `ptwrite` [`Code::build`]
    /// placed after a recorded instruction, whose id it repeats. A
    /// source-level `ptwrite` has an id of its own and is not one.
    pub fn is_recording(&self, pc: Pc) -> bool {
        let pc = pc as usize;
        pc > 0 && self.ids[pc] == self.ids[pc - 1]
    }

    fn block_index(&self, func: FuncId, block: BlockId) -> Option<usize> {
        let f = func.0 as usize;
        let first = *self.func_block.get(f)? as usize;
        let end = *self.func_block.get(f + 1)? as usize;
        let i = first + block.0 as usize;
        (i < end).then_some(i)
    }

    /// The first pc of `block` in `func`.
    fn block_pc(&self, func: FuncId, block: BlockId) -> Option<Pc> {
        Some(self.block_start[self.block_index(func, block)?])
    }

    /// The entry pc of `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    fn entry_pc(&self, func: FuncId) -> Pc {
        self.block_pc(func, BlockId(0)).expect("function exists")
    }

    /// Whether the op at `pc` defines a register — the IR instruction's
    /// [`Instr::dst`] is set.
    pub fn defines_value(&self, pc: Pc) -> bool {
        match self.ops[pc as usize] {
            Op::Call { site } => self.calls[site as usize].dst.is_some(),
            Op::Store { .. }
            | Op::Free { .. }
            | Op::PtWrite { .. }
            | Op::Print { .. }
            | Op::Join { .. }
            | Op::Lock { .. }
            | Op::Unlock { .. }
            | Op::Assert { .. }
            | Op::Abort { .. }
            | Op::Jump { .. }
            | Op::Branch { .. }
            | Op::Return { .. } => false,
            _ => true,
        }
    }
}

/// Splits off the front of `recorded` the sites in `block` of `func`,
/// which layout order puts next.
fn in_block<'r>(recorded: &mut &'r [InstrId], func: FuncId, block: BlockId) -> &'r [InstrId] {
    let n = recorded
        .iter()
        .take_while(|id| (id.func, id.block) == (func, block))
        .count();
    let (here, rest) = recorded.split_at(n);
    *recorded = rest;
    here
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::word::WordFlow;

    #[test]
    fn crunch_loop_is_generic_in_ops_and_specialized_in_fast_ops() {
        let p = compile(
            r#"
            fn crunch(n: u64) -> u64 {
                let h: u64 = 14695981039346656037;
                for i: u64 = 0; i < n; i = i + 1 {
                    h = (h ^ i) * 1099511628211;
                    h = h ^ (h >> 33);
                }
                return h;
            }
            fn main() { print(crunch(3)); }
            "#,
        )
        .unwrap();
        let code = p.code();
        let alu = |op: &Op| matches!(op, Op::Bin { .. } | Op::Cmp { .. });
        assert!(code
            .ops()
            .iter()
            .all(|&op| !matches!(op, Op::Mov { .. }) && op.split().is_none()));
        assert!(code.ops().iter().any(alu));
        let fast: Vec<Op> = code.ops().iter().map(|op| op.specialize()).collect();
        assert!(!fast.iter().any(alu), "{fast:?}");
        assert!(fast.iter().any(|op| matches!(op, Op::Mov { .. })));
        assert!(fast
            .iter()
            .any(|op| matches!(op, Op::LShrRI { imm: 33, .. })));
        assert!(!code.fast_ops().iter().any(alu));
    }

    /// Sign and width boundaries, and shift amounts at and past 64.
    const BOUNDARY: [u64; 22] = [
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
        0xff,
        0x8000,
        0xffff,
        0x7fff_ffff,
        0x8000_0000,
        0xffff_ffff,
        0x1_0000_0000,
        i64::MAX as u64,
        i64::MIN as u64,
        -2i64 as u64,
        -1i64 as u64,
    ];

    const BIN_OPS: [BinOp; 11] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::UDiv,
        BinOp::URem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
    ];

    const CMP_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Ult,
        CmpOp::Ule,
        CmpOp::Slt,
        CmpOp::Sle,
    ];

    /// Registers the ops below use; every aliasing of them occurs.
    const REGS: u32 = 3;

    /// Every generic ALU op over [`REGS`] registers, at every width, with
    /// a register or an immediate on the left and a register or a
    /// boundary immediate on the right.
    fn generic_alu_ops() -> Vec<Op> {
        let regs: Vec<Operand> = (0..REGS).map(|r| Operand::Reg(Reg(r))).collect();
        let lefts = regs
            .iter()
            .copied()
            .chain([Operand::Imm(0), Operand::Imm(65)]);
        let rights: Vec<Operand> = regs
            .iter()
            .copied()
            .chain(BOUNDARY.map(Operand::Imm))
            .collect();
        let mut ops = Vec::new();
        for a in lefts {
            for &b in &rights {
                for width in [Width::W8, Width::W16, Width::W32, Width::W64] {
                    for dst in (0..REGS).map(Reg) {
                        ops.extend(BIN_OPS.map(|op| Op::Bin {
                            dst,
                            op,
                            a,
                            b,
                            width,
                        }));
                        ops.extend(CMP_OPS.map(|pred| Op::Cmp {
                            dst,
                            pred,
                            a,
                            b,
                            width,
                        }));
                    }
                }
            }
        }
        ops
    }

    /// Register files over [`REGS`] registers: each pair of boundary
    /// values in the first two, and a third derived from them.
    fn register_files() -> impl Iterator<Item = [u64; REGS as usize]> {
        BOUNDARY
            .iter()
            .flat_map(|&x| BOUNDARY.iter().map(move |&y| [x, y, !x ^ y.rotate_left(7)]))
    }

    #[test]
    fn every_specialized_form_means_its_generic_op() {
        let mut specialized = 0;
        for op in generic_alu_ops() {
            let fast = op.specialize();
            assert_eq!(
                fast.specialize(),
                fast,
                "{op:?}: specializing is idempotent"
            );
            // Division keeps its generic form for the divide-by-zero fault.
            let has_form = matches!(
                op,
                Op::Bin {
                    op: BinOp::Add
                        | BinOp::Sub
                        | BinOp::Mul
                        | BinOp::And
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::Shl
                        | BinOp::LShr
                        | BinOp::AShr,
                    a: Operand::Reg(_),
                    width: Width::W64,
                    ..
                } | Op::Cmp {
                    a: Operand::Reg(_),
                    width: Width::W64,
                    ..
                }
            );
            assert_eq!(fast != op, has_form, "{op:?} specializes to {fast:?}");
            if fast == op {
                continue;
            }
            specialized += 1;
            assert!(fast.split().is_none(), "{op:?} specializes to a fused form");
            for regs in register_files() {
                let (mut want, mut got) = (regs, regs);
                assert_eq!(
                    (fast.eval_words(&mut got), got),
                    (op.eval_words(&mut want), want),
                    "{op:?} as {fast:?} on {regs:?}"
                );
            }
        }
        assert!(specialized > 0);
    }

    /// `ops`, each followed by its specialized form if it has one.
    fn with_specialized(ops: &[Op]) -> Vec<Op> {
        let mut out = Vec::with_capacity(2 * ops.len());
        for &op in ops {
            out.push(op);
            if op.specialize() != op {
                out.push(op.specialize());
            }
        }
        out
    }

    /// Every op [`Code::fast_ops`] may pair: the generic ALU ops and their
    /// specialized forms as either op, and as the second op also every
    /// `Mov`, `Branch` and `Jump` over [`REGS`] registers.
    #[test]
    fn every_fused_pair_means_its_two_ops_run_in_turn() {
        let generic = generic_alu_ops();
        let firsts = with_specialized(&generic);
        let (then_pc, else_pc) = (10, 20);
        let mut seconds = vec![
            Op::Jump { to: then_pc },
            Op::Branch {
                cond: Operand::Imm(1),
                then_pc,
                else_pc,
            },
        ];
        for r in (0..REGS).map(Reg) {
            seconds.push(Op::Branch {
                cond: Operand::Reg(r),
                then_pc,
                else_pc,
            });
            seconds.extend((0..REGS).map(|src| Op::Mov {
                dst: r,
                src: Reg(src),
            }));
        }
        // 64-bit ALU ops over registers only, so the pool stays small.
        let reg_only: Vec<Op> = generic
            .iter()
            .copied()
            .filter(|op| {
                matches!(
                    op,
                    Op::Bin {
                        a: Operand::Reg(_),
                        b: Operand::Reg(_),
                        width: Width::W64,
                        ..
                    } | Op::Cmp {
                        a: Operand::Reg(_),
                        b: Operand::Reg(_),
                        width: Width::W64,
                        ..
                    }
                )
            })
            .collect();
        seconds.extend(with_specialized(&reg_only));
        let mut fused = 0;
        for &first in &firsts {
            for &second in &seconds {
                let Some(pair) = Op::fuse(first, second) else {
                    continue;
                };
                fused += 1;
                assert_eq!(pair.split(), Some((first, second)), "{pair:?}");
                for regs in register_files() {
                    let (mut want, mut got) = (regs, regs);
                    assert_eq!(first.eval_words(&mut want), WordFlow::Next, "{first:?}");
                    match (second.eval_words(&mut want), pair.eval_words(&mut got)) {
                        (WordFlow::Next, WordFlow::Pair) => {}
                        (
                            WordFlow::Branch { taken, to },
                            WordFlow::CmpBranch {
                                taken: pair_taken,
                                to: pair_to,
                            },
                        ) => assert_eq!(
                            (pair_taken, pair_to),
                            (taken, to),
                            "{pair:?} on {regs:?}: TNT bit and successor"
                        ),
                        flows => panic!("{pair:?} on {regs:?}: flows {flows:?}"),
                    }
                    assert_eq!(got, want, "{pair:?} on {regs:?}: registers");
                }
            }
        }
        assert!(fused > 0);
    }

    #[test]
    fn pc_and_instr_id_round_trip() {
        let p = compile(
            r#"
            global G: [u32; 4];
            fn f(x: u32) -> u32 { if x < 3 { return x; } return G[x % 4]; }
            fn main() { let v: u32 = f(input_u32(0)); assert(v != 9, "nine"); }
            "#,
        )
        .unwrap();
        let code = p.code();
        for pc in 0..code.ops().len() as Pc {
            assert_eq!(code.pc_of(code.id_of(pc)), Some(pc));
        }
        for (fi, f) in p.funcs().iter().enumerate() {
            let func = FuncId(fi as u32);
            assert_eq!(code.id_of(code.entry_pc(func)).block, BlockId(0));
            for (bi, b) in f.blocks.iter().enumerate() {
                let block = BlockId(bi as u32);
                let past_end = InstrId {
                    func,
                    block,
                    index: b.instrs.len(),
                };
                assert_eq!(code.pc_of(past_end), None);
            }
        }
        let no_func = InstrId {
            func: FuncId(9),
            block: BlockId(0),
            index: 0,
        };
        assert_eq!(code.pc_of(no_func), None);
    }

    #[test]
    fn recording_slots_follow_their_site_and_repeat_its_id() {
        let p = compile("fn main() { let x: u32 = 1 + 2; ptwrite(x); print(x); }").unwrap();
        let main = &p.funcs()[0].blocks[0].instrs;
        let at = |index| InstrId {
            func: FuncId(0),
            block: BlockId(0),
            index,
        };
        let site = at(0);
        assert!(main[0].dst().is_some());
        let source = (0..main.len())
            .find(|&i| matches!(main[i], Instr::PtWrite { .. }))
            .expect("a source-level ptwrite");
        let r = p.recording(&[site]);
        let code = r.code();
        assert_eq!(code.ops().len(), p.code().ops().len() + 1);
        assert_eq!(
            code.ops()[1],
            Op::PtWrite {
                value: Operand::Reg(main[0].dst().unwrap())
            }
        );
        assert!(code.is_recording(1) && code.id_of(1) == site);
        assert_eq!(code.pc_of(site), Some(0));
        // The source-level ptwrite keeps its own id and is no recording slot.
        let pc = code.pc_of(at(source)).unwrap();
        assert_eq!(pc as usize, source + 1);
        assert!(!code.is_recording(pc));
        assert!((0..code.ops().len() as Pc)
            .filter(|&pc| code.is_recording(pc))
            .eq([1]));
    }

    #[test]
    #[should_panic(expected = "a recorded site defines a value")]
    fn recording_a_site_without_a_value_panics() {
        let p = compile("fn main() { print(7); }").unwrap();
        let print = InstrId {
            func: FuncId(0),
            block: BlockId(0),
            index: 0,
        };
        let _ = p.recording(&[print]);
    }
}
