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
//!   stays `Copy`;
//! * the common 64-bit `Bin`/`Cmp` forms are specialized by operand kind
//!   (register–register, register–immediate), so the interpreter's hot
//!   arms are one register-file access per operand with no operand-kind
//!   or width match. `or r, 0` at 64 bits — the lowering's register
//!   move — becomes [`Op::Mov`].
//!
//! Other widths and operand shapes keep a generic form carrying the IR's
//! operands. [`Op::alu`] maps every specialized form back to its generic
//! meaning, which is what the symbolic executor evaluates.
//!
//! [`InstrId`]s of the unchanged IR are the program's one coordinate
//! space: failure reports, trace sites and snapshots use them whatever
//! the build records, and [`Code::id_of`] / [`Code::pc_of`] convert where
//! they are observable.

use crate::ir::{BlockId, Func, FuncId, Global, Instr, InstrId, Operand, Reg, Terminator};
use crate::value::{BinOp, CmpOp, UnOp, Width};

/// A program counter: an index into [`Code::ops`].
pub type Pc = u32;

/// One flat instruction. Specialized 64-bit forms are named `<op>RR`
/// (`dst = a op b`) and `<op>RI` (`dst = a op imm`); every field means
/// what it means on the IR [`Instr`] the form lowers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst = value`; also every `GlobalAddr`.
    Const {
        dst: Reg,
        value: u64,
    },
    /// `dst = src`: the 64-bit `or src, 0` lowering emits for moves.
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
    /// Any other [`Instr::Bin`].
    Bin {
        dst: Reg,
        op: BinOp,
        a: Operand,
        b: Operand,
        width: Width,
    },
    /// Any other [`Instr::Cmp`].
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
}

/// What an ALU op computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluKind {
    /// Arithmetic or bitwise.
    Bin(BinOp),
    /// Comparison producing 0 or 1.
    Cmp(CmpOp),
}

/// The generic meaning of an ALU op: `dst = a kind b` at `width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alu {
    /// Destination register.
    pub dst: Reg,
    /// Operation.
    pub kind: AluKind,
    /// Left operand.
    pub a: Operand,
    /// Right operand.
    pub b: Operand,
    /// Operation width.
    pub width: Width,
}

impl Op {
    /// The generic `Bin`/`Cmp` meaning of an ALU op (specialized or not),
    /// or `None` for every other op.
    #[inline]
    pub fn alu(&self) -> Option<Alu> {
        use AluKind::{Bin as B, Cmp as C};
        let (dst, kind, a, b) = match *self {
            Op::Bin {
                dst,
                op,
                a,
                b,
                width,
            } => {
                return Some(Alu {
                    dst,
                    kind: B(op),
                    a,
                    b,
                    width,
                })
            }
            Op::Cmp {
                dst,
                pred,
                a,
                b,
                width,
            } => {
                return Some(Alu {
                    dst,
                    kind: C(pred),
                    a,
                    b,
                    width,
                })
            }
            Op::Mov { dst, src } => (dst, B(BinOp::Or), src.into(), Operand::Imm(0)),
            Op::AddRR { dst, a, b } => (dst, B(BinOp::Add), a.into(), b.into()),
            Op::AddRI { dst, a, imm } => (dst, B(BinOp::Add), a.into(), Operand::Imm(imm)),
            Op::SubRR { dst, a, b } => (dst, B(BinOp::Sub), a.into(), b.into()),
            Op::SubRI { dst, a, imm } => (dst, B(BinOp::Sub), a.into(), Operand::Imm(imm)),
            Op::MulRR { dst, a, b } => (dst, B(BinOp::Mul), a.into(), b.into()),
            Op::MulRI { dst, a, imm } => (dst, B(BinOp::Mul), a.into(), Operand::Imm(imm)),
            Op::AndRR { dst, a, b } => (dst, B(BinOp::And), a.into(), b.into()),
            Op::AndRI { dst, a, imm } => (dst, B(BinOp::And), a.into(), Operand::Imm(imm)),
            Op::OrRR { dst, a, b } => (dst, B(BinOp::Or), a.into(), b.into()),
            Op::OrRI { dst, a, imm } => (dst, B(BinOp::Or), a.into(), Operand::Imm(imm)),
            Op::XorRR { dst, a, b } => (dst, B(BinOp::Xor), a.into(), b.into()),
            Op::XorRI { dst, a, imm } => (dst, B(BinOp::Xor), a.into(), Operand::Imm(imm)),
            Op::ShlRR { dst, a, b } => (dst, B(BinOp::Shl), a.into(), b.into()),
            Op::ShlRI { dst, a, imm } => (dst, B(BinOp::Shl), a.into(), Operand::Imm(imm)),
            Op::LShrRR { dst, a, b } => (dst, B(BinOp::LShr), a.into(), b.into()),
            Op::LShrRI { dst, a, imm } => (dst, B(BinOp::LShr), a.into(), Operand::Imm(imm)),
            Op::AShrRR { dst, a, b } => (dst, B(BinOp::AShr), a.into(), b.into()),
            Op::AShrRI { dst, a, imm } => (dst, B(BinOp::AShr), a.into(), Operand::Imm(imm)),
            Op::EqRR { dst, a, b } => (dst, C(CmpOp::Eq), a.into(), b.into()),
            Op::EqRI { dst, a, imm } => (dst, C(CmpOp::Eq), a.into(), Operand::Imm(imm)),
            Op::NeRR { dst, a, b } => (dst, C(CmpOp::Ne), a.into(), b.into()),
            Op::NeRI { dst, a, imm } => (dst, C(CmpOp::Ne), a.into(), Operand::Imm(imm)),
            Op::UltRR { dst, a, b } => (dst, C(CmpOp::Ult), a.into(), b.into()),
            Op::UltRI { dst, a, imm } => (dst, C(CmpOp::Ult), a.into(), Operand::Imm(imm)),
            Op::UleRR { dst, a, b } => (dst, C(CmpOp::Ule), a.into(), b.into()),
            Op::UleRI { dst, a, imm } => (dst, C(CmpOp::Ule), a.into(), Operand::Imm(imm)),
            Op::SltRR { dst, a, b } => (dst, C(CmpOp::Slt), a.into(), b.into()),
            Op::SltRI { dst, a, imm } => (dst, C(CmpOp::Slt), a.into(), Operand::Imm(imm)),
            Op::SleRR { dst, a, b } => (dst, C(CmpOp::Sle), a.into(), b.into()),
            Op::SleRI { dst, a, imm } => (dst, C(CmpOp::Sle), a.into(), Operand::Imm(imm)),
            _ => return None,
        };
        Some(Alu {
            dst,
            kind,
            a,
            b,
            width: Width::W64,
        })
    }

    /// The specialized form of a 64-bit `a op b` with a register left
    /// operand, if there is one.
    fn specialize_bin(dst: Reg, op: BinOp, a: Reg, b: Operand) -> Option<Op> {
        Some(match (op, b) {
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
            // Division keeps the generic form for its divide-by-zero fault.
            (BinOp::UDiv | BinOp::URem, _) => return None,
        })
    }

    /// The specialized form of a 64-bit `a pred b` with a register left
    /// operand.
    fn specialize_cmp(dst: Reg, pred: CmpOp, a: Reg, b: Operand) -> Op {
        match (pred, b) {
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
        code
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
            } => match a {
                Operand::Reg(a) if width == Width::W64 => Op::specialize_bin(dst, op, a, b),
                _ => None,
            }
            .unwrap_or(Op::Bin {
                dst,
                op,
                a,
                b,
                width,
            }),
            &Instr::Cmp {
                dst,
                pred,
                a,
                b,
                width,
            } => match a {
                Operand::Reg(a) if width == Width::W64 => Op::specialize_cmp(dst, pred, a, b),
                _ => Op::Cmp {
                    dst,
                    pred,
                    a,
                    b,
                    width,
                },
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

    /// The instruction array.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
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

    #[test]
    fn crunch_loop_is_fully_specialized() {
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
        let generic = code
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Bin { .. } | Op::Cmp { .. }))
            .count();
        assert_eq!(generic, 0, "{:?}", code.ops());
        assert!(code.ops().iter().any(|op| matches!(op, Op::Mov { .. })));
        assert!(code
            .ops()
            .iter()
            .any(|op| matches!(op, Op::LShrRI { imm: 33, .. })));
    }

    #[test]
    fn specialized_forms_keep_their_generic_meaning() {
        let (r0, r1, r2) = (Reg(0), Reg(1), Reg(2));
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::LShr,
            BinOp::AShr,
        ] {
            for b in [Operand::Reg(r2), Operand::Imm(7), Operand::Imm(0)] {
                let s = Op::specialize_bin(r0, op, r1, b).unwrap();
                let alu = s.alu().unwrap();
                assert_eq!(alu.dst, r0);
                assert_eq!(alu.kind, AluKind::Bin(op));
                assert_eq!(alu.a, Operand::Reg(r1));
                assert_eq!(alu.b, b);
                assert_eq!(alu.width, Width::W64);
            }
        }
        for pred in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ult,
            CmpOp::Ule,
            CmpOp::Slt,
            CmpOp::Sle,
        ] {
            for b in [Operand::Reg(r2), Operand::Imm(7)] {
                let alu = Op::specialize_cmp(r0, pred, r1, b).alu().unwrap();
                assert_eq!(
                    (alu.kind, alu.a, alu.b),
                    (AluKind::Cmp(pred), Operand::Reg(r1), b)
                );
            }
        }
        assert!(Op::specialize_bin(r0, BinOp::UDiv, r1, Operand::Imm(3)).is_none());
        assert!(Op::Jump { to: 0 }.alu().is_none());
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
