//! The register-based intermediate representation.
//!
//! Both the concrete interpreter and the symbolic executor run this IR, so
//! a control-flow trace recorded concretely can shepherd symbolic execution
//! instruction-for-instruction — the property the paper gets by mapping x86
//! traces into KLEE's LLVM IR (and loses 8.5% of; our mapping is exact, see
//! DESIGN.md).

use crate::code::Code;
use crate::value::{BinOp, CmpOp, UnOp, Width};
use std::fmt;
use std::sync::Arc;

/// Index of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FuncId(pub u32);

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A virtual register within a function frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

/// Index of a global variable within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Static identity of one IR instruction: the "program counter" used for
/// failure identity, trace following, and `ptwrite` instrumentation sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId {
    /// Containing function.
    pub func: FuncId,
    /// Containing block.
    pub block: BlockId,
    /// Index within the block; `usize::MAX` denotes the block terminator.
    pub index: usize,
}

impl InstrId {
    /// The pseudo-index used for a block's terminator.
    pub const TERMINATOR: usize = usize::MAX;
}

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.index == Self::TERMINATOR {
            write!(f, "f{}.b{}.term", self.func.0, self.block.0)
        } else {
            write!(f, "f{}.b{}.i{}", self.func.0, self.block.0, self.index)
        }
    }
}

/// A register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a virtual register.
    Reg(Reg),
    /// A constant.
    Imm(u64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{}", r.0),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = imm`
    Const {
        /// Destination register.
        dst: Reg,
        /// Value.
        value: u64,
    },
    /// `dst = a op b` at `width`, wrapping.
    Bin {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Operation width.
        width: Width,
    },
    /// `dst = op a` at `width`.
    Un {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Operand,
        /// Operation width.
        width: Width,
    },
    /// `dst = (a pred b) ? 1 : 0` at `width`.
    Cmp {
        /// Destination register.
        dst: Reg,
        /// Predicate.
        pred: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Comparison width.
        width: Width,
    },
    /// `dst = zext(trunc(a, from))` — register re-width.
    Cast {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        a: Operand,
        /// Width truncated to before zero-extension.
        from: Width,
    },
    /// `dst = mem[addr .. addr+width]` little-endian.
    Load {
        /// Destination register.
        dst: Reg,
        /// Byte address.
        addr: Operand,
        /// Access width.
        width: Width,
    },
    /// `mem[addr .. addr+width] = value` little-endian.
    Store {
        /// Byte address.
        addr: Operand,
        /// Stored value (truncated to `width`).
        value: Operand,
        /// Access width.
        width: Width,
    },
    /// `dst = &global`
    GlobalAddr {
        /// Destination register.
        dst: Reg,
        /// Which global.
        global: GlobalId,
    },
    /// `dst = alloca(size)` — frame-local stack memory, freed on return.
    StackAlloc {
        /// Destination register (receives the base address).
        dst: Reg,
        /// Size in bytes.
        size: u64,
    },
    /// `dst = heap_alloc(size)`.
    Alloc {
        /// Destination register (receives the base address).
        dst: Reg,
        /// Size in bytes.
        size: Operand,
    },
    /// `heap_free(addr)`.
    Free {
        /// Allocation base address.
        addr: Operand,
    },
    /// Direct call. Arguments become the callee's first registers.
    Call {
        /// Receives the return value, if the caller uses it.
        dst: Option<Reg>,
        /// Callee.
        func: FuncId,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// `dst = next `width` bytes of input stream `source``.
    Input {
        /// Destination register.
        dst: Reg,
        /// Input stream id.
        source: u32,
        /// How many bytes to consume.
        width: Width,
    },
    /// `dst = virtual clock` — a nondeterministic time source.
    Clock {
        /// Destination register.
        dst: Reg,
    },
    /// Emit `value` into the trace (the `ptwrite` instruction, §3.3.3).
    PtWrite {
        /// Traced value.
        value: Operand,
    },
    /// Append `value` to the program's observable output.
    Print {
        /// Printed value.
        value: Operand,
    },
    /// Start a thread running `func(args)`; `dst` receives the thread id.
    Spawn {
        /// Receives the new thread id.
        dst: Reg,
        /// Thread entry function.
        func: FuncId,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Block until thread `tid` exits.
    Join {
        /// Thread id operand.
        tid: Operand,
    },
    /// Acquire mutex `lock`.
    Lock {
        /// Lock id operand.
        lock: Operand,
    },
    /// Release mutex `lock`.
    Unlock {
        /// Lock id operand.
        lock: Operand,
    },
    /// Fault with [`RuntimeFault::AssertFailed`] if `cond` is zero.
    ///
    /// [`RuntimeFault::AssertFailed`]: crate::error::RuntimeFault::AssertFailed
    Assert {
        /// Condition (nonzero passes).
        cond: Operand,
        /// Failure message.
        message: String,
    },
    /// Unconditional fault with [`RuntimeFault::Abort`].
    ///
    /// [`RuntimeFault::Abort`]: crate::error::RuntimeFault::Abort
    Abort {
        /// Failure message.
        message: String,
    },
}

impl Instr {
    /// The register this instruction defines, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::GlobalAddr { dst, .. }
            | Instr::StackAlloc { dst, .. }
            | Instr::Alloc { dst, .. }
            | Instr::Input { dst, .. }
            | Instr::Clock { dst }
            | Instr::Spawn { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            Instr::Store { .. }
            | Instr::Free { .. }
            | Instr::PtWrite { .. }
            | Instr::Print { .. }
            | Instr::Join { .. }
            | Instr::Lock { .. }
            | Instr::Unlock { .. }
            | Instr::Assert { .. }
            | Instr::Abort { .. } => None,
        }
    }

    /// Width of the value this instruction defines, where meaningful.
    /// Addresses, clocks, and thread ids are 64-bit; comparison results are
    /// reported at the comparison width.
    pub fn dst_width(&self) -> Option<Width> {
        match self {
            Instr::Bin { width, .. } | Instr::Un { width, .. } | Instr::Cmp { width, .. } => {
                Some(*width)
            }
            Instr::Cast { from, .. } => Some(*from),
            Instr::Load { width, .. } | Instr::Input { width, .. } => Some(*width),
            Instr::Const { .. }
            | Instr::GlobalAddr { .. }
            | Instr::StackAlloc { .. }
            | Instr::Alloc { .. }
            | Instr::Clock { .. }
            | Instr::Spawn { .. }
            | Instr::Call { .. } => Some(Width::W64),
            _ => None,
        }
    }
}

/// How a basic block ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `cond != 0`. This is the instruction
    /// whose outcome Intel PT records as a TNT bit.
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Target when nonzero.
        then_blk: BlockId,
        /// Target when zero.
        else_blk: BlockId,
    },
    /// Function return.
    Return(Option<Operand>),
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// Block terminator. `None` only transiently during construction.
    pub term: Option<Terminator>,
}

/// A function: blocks, entry, and frame layout.
#[derive(Debug, Clone)]
pub struct Func {
    /// Function name (for diagnostics and failure reports).
    pub name: String,
    /// Number of parameters; parameters arrive in registers `r0..rN`.
    pub n_params: usize,
    /// Total virtual registers used by the frame.
    pub n_regs: usize,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

impl Func {
    /// The block with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }
}

/// A global variable's layout.
#[derive(Debug, Clone)]
pub struct Global {
    /// Name (for diagnostics).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Element width for array globals; scalar globals use their own width.
    pub elem: Width,
    /// Scalar initial value (arrays are zeroed).
    pub init: u64,
    /// Assigned virtual address (filled in by lowering).
    pub addr: u64,
}

/// A complete IR program, with its flat [`Code`] built once at
/// construction.
///
/// The fields are read-only, so a program is never edited after it is
/// built and its code always lowers its blocks; clones share the code.
#[derive(Debug, Clone, Default)]
pub struct Program {
    funcs: Vec<Func>,
    globals: Vec<Global>,
    entry: FuncId,
    code: Arc<Code>,
}

impl Program {
    /// A program of `funcs` and `globals` starting at `entry`.
    ///
    /// # Panics
    ///
    /// Panics if a block has no terminator or references a block,
    /// function or global that does not exist.
    pub fn new(funcs: Vec<Func>, globals: Vec<Global>, entry: FuncId) -> Self {
        let code = Arc::new(Code::build(&funcs, &globals, entry, &[]));
        Program {
            funcs,
            globals,
            entry,
            code,
        }
    }

    /// All functions; [`Program::entry`] indexes into this.
    pub fn funcs(&self) -> &[Func] {
        &self.funcs
    }

    /// All globals with assigned addresses.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// The `main` function.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// The flat code both executors run.
    pub fn code(&self) -> &Arc<Code> {
        &self.code
    }

    /// This program with flat code that records the value of every site
    /// in `sites` (strictly ascending value-defining instructions): a
    /// `ptwrite` follows each in a recording slot that carries the site's
    /// id. The blocks are unchanged, so every [`InstrId`] means what it
    /// means here.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is not strictly ascending or names anything but a
    /// value-defining instruction.
    pub fn recording(&self, sites: &[InstrId]) -> Program {
        Program {
            code: Arc::new(Code::build(&self.funcs, &self.globals, self.entry, sites)),
            ..self.clone()
        }
    }

    /// The function with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Func {
        &self.funcs[id.0 as usize]
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The instruction at `id`, or `None` for terminators / out-of-range ids.
    pub fn instr(&self, id: InstrId) -> Option<&Instr> {
        self.funcs
            .get(id.func.0 as usize)?
            .blocks
            .get(id.block.0 as usize)?
            .instrs
            .get(id.index)
    }

    /// Total static instruction count (excluding terminators).
    pub fn static_instr_count(&self) -> usize {
        self.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.instrs.len())
            .sum()
    }

    /// Renders the program as human-readable IR text.
    pub fn display(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        for g in &self.globals {
            let _ = writeln!(
                out,
                "global {} : {} bytes @ {:#x} (elem {}, init {})",
                g.name, g.size, g.addr, g.elem, g.init
            );
        }
        for (fi, f) in self.funcs.iter().enumerate() {
            let _ = writeln!(
                out,
                "fn f{} {} (params {}, regs {}) {{",
                fi, f.name, f.n_params, f.n_regs
            );
            for (bi, b) in f.blocks.iter().enumerate() {
                let _ = writeln!(out, "  b{bi}:");
                for (ii, ins) in b.instrs.iter().enumerate() {
                    let _ = writeln!(out, "    i{ii}: {ins:?}");
                }
                let _ = writeln!(out, "    term: {:?}", b.term);
            }
            let _ = writeln!(out, "}}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_dst_extraction() {
        let i = Instr::Bin {
            dst: Reg(3),
            op: BinOp::Add,
            a: Operand::Imm(1),
            b: Operand::Reg(Reg(0)),
            width: Width::W32,
        };
        assert_eq!(i.dst(), Some(Reg(3)));
        assert_eq!(i.dst_width(), Some(Width::W32));
        let s = Instr::Store {
            addr: Operand::Imm(0),
            value: Operand::Imm(0),
            width: Width::W8,
        };
        assert_eq!(s.dst(), None);
        assert_eq!(s.dst_width(), None);
    }

    #[test]
    fn instr_id_display() {
        let id = InstrId {
            func: FuncId(1),
            block: BlockId(2),
            index: 3,
        };
        assert_eq!(id.to_string(), "f1.b2.i3");
        let t = InstrId {
            index: InstrId::TERMINATOR,
            ..id
        };
        assert_eq!(t.to_string(), "f1.b2.term");
    }

    #[test]
    fn program_lookup() {
        let p = Program::new(
            vec![Func {
                name: "main".into(),
                n_params: 0,
                n_regs: 1,
                blocks: vec![Block {
                    instrs: vec![Instr::Const {
                        dst: Reg(0),
                        value: 9,
                    }],
                    term: Some(Terminator::Return(None)),
                }],
            }],
            vec![],
            FuncId(0),
        );
        assert_eq!(p.func_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.func_by_name("nope"), None);
        assert_eq!(p.static_instr_count(), 1);
        assert!(p
            .instr(InstrId {
                func: FuncId(0),
                block: BlockId(0),
                index: 0
            })
            .is_some());
        assert!(!p.display().is_empty());
    }
}
