//! Lowers the typed AST to the register IR.

use crate::ast::{AstBinOp, AstUnOp, Type};
use crate::ir::*;
use crate::types::{Builtin, Callee, TExpr, TExprKind, TFunc, TLValue, TStmt, TUnit};
use crate::value::{BinOp, CmpOp, UnOp, Width};

/// Base virtual address of the global segment (see [`crate::mem`]).
pub const GLOBAL_BASE: u64 = 0x1000_0000;

/// Lowers a type-checked unit to an IR [`Program`].
pub fn lower(unit: &TUnit) -> Program {
    let mut globals = Vec::new();
    let mut addr = GLOBAL_BASE;
    for g in &unit.globals {
        let (size, elem) = match g.ty {
            Type::Bool => (1, Width::W8),
            Type::Int(w) => (w.bytes(), w),
            Type::Array(w, n) => (w.bytes() * n, w),
        };
        globals.push(Global {
            name: g.name.clone(),
            size,
            elem,
            init: g.init.unwrap_or(0),
            addr,
        });
        addr += size.div_ceil(8) * 8;
    }

    let funcs = unit
        .funcs
        .iter()
        .map(|f| FuncLowerer::new(f).lower())
        .collect();
    Program::new(funcs, globals, FuncId(unit.entry as u32))
}

/// Where a local slot lives at IR level.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Scalar locals live in a register.
    Scalar(Reg),
    /// Array locals live in stack memory; the register holds the base.
    ArrayBase(Reg),
}

struct FuncLowerer<'a> {
    func: &'a TFunc,
    blocks: Vec<Block>,
    cur: BlockId,
    next_reg: u32,
    places: Vec<Place>,
    /// (continue target, break target) for each enclosing loop.
    loops: Vec<(BlockId, BlockId)>,
}

impl<'a> FuncLowerer<'a> {
    fn new(func: &'a TFunc) -> Self {
        FuncLowerer {
            func,
            blocks: vec![Block::default()],
            cur: BlockId(0),
            next_reg: 0,
            places: Vec::new(),
            loops: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, i: Instr) {
        self.blocks[self.cur.0 as usize].instrs.push(i);
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId((self.blocks.len() - 1) as u32)
    }

    fn set_term(&mut self, t: Terminator) {
        let b = &mut self.blocks[self.cur.0 as usize];
        if b.term.is_none() {
            b.term = Some(t);
        }
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn terminated(&self) -> bool {
        self.blocks[self.cur.0 as usize].term.is_some()
    }

    fn lower(mut self) -> Func {
        // Parameters occupy r0..rN; array locals get their stack storage at
        // entry so that inner scopes can be allocated once per activation.
        for (slot, info) in self.func.locals.iter().enumerate() {
            let place = match info.ty {
                Type::Array(w, n) => {
                    let r = self.fresh();
                    if slot < self.func.n_params {
                        unreachable!("array parameters are rejected by the parser");
                    }
                    self.places.push(Place::ArrayBase(r));
                    self.emit(Instr::StackAlloc {
                        dst: r,
                        size: w.bytes() * n,
                    });
                    continue;
                }
                _ => Place::Scalar(self.fresh()),
            };
            self.places.push(place);
        }
        for stmt in &self.func.body {
            self.stmt(stmt);
        }
        self.set_term(Terminator::Return(None));
        // Any unterminated blocks created by dead code also return.
        for b in &mut self.blocks {
            if b.term.is_none() {
                b.term = Some(Terminator::Return(None));
            }
        }
        Func {
            name: self.func.name.clone(),
            n_params: self.func.n_params,
            n_regs: self.next_reg as usize,
            blocks: self.blocks,
        }
    }

    fn stmt(&mut self, s: &TStmt) {
        if self.terminated() {
            // Dead code after return/break/continue: still lower into a fresh
            // unreachable block to keep ids stable, then drop back.
            let dead = self.new_block();
            self.switch_to(dead);
        }
        match s {
            TStmt::Let { slot, init } => {
                let v = self.expr(init);
                let Place::Scalar(r) = self.places[*slot] else {
                    unreachable!("let target is scalar");
                };
                self.assign_reg(r, v);
            }
            TStmt::VarArray { .. } => {
                // Storage was allocated at entry; nothing to do here.
            }
            TStmt::Assign { target, value } => {
                let v = self.expr(value);
                // The checker guarantees `value.ty` equals the target's type,
                // so the store width comes straight from the typed value.
                let w = value.ty.scalar_width();
                match target {
                    TLValue::Local(slot) => {
                        let Place::Scalar(r) = self.places[*slot] else {
                            unreachable!("scalar assignment to array slot");
                        };
                        self.assign_reg(r, v);
                    }
                    TLValue::Global(gid) => {
                        let g = GlobalId(*gid as u32);
                        let addr = self.fresh();
                        self.emit(Instr::GlobalAddr {
                            dst: addr,
                            global: g,
                        });
                        self.emit(Instr::Store {
                            addr: addr.into(),
                            value: v,
                            width: w,
                        });
                    }
                    TLValue::IndexGlobal { gid, index } => {
                        let base = self.fresh();
                        self.emit(Instr::GlobalAddr {
                            dst: base,
                            global: GlobalId(*gid as u32),
                        });
                        let addr = self.element_addr(base.into(), index, w);
                        self.emit(Instr::Store {
                            addr,
                            value: v,
                            width: w,
                        });
                    }
                    TLValue::IndexLocal { slot, index } => {
                        let (base, _) = self.local_array(*slot);
                        let addr = self.element_addr(base, index, w);
                        self.emit(Instr::Store {
                            addr,
                            value: v,
                            width: w,
                        });
                    }
                }
            }
            TStmt::Expr(e) => {
                self.expr(e);
            }
            TStmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.expr(cond);
                let tb = self.new_block();
                let eb = self.new_block();
                let merge = self.new_block();
                self.set_term(Terminator::Branch {
                    cond: c,
                    then_blk: tb,
                    else_blk: eb,
                });
                self.switch_to(tb);
                for s in then_blk {
                    self.stmt(s);
                }
                self.set_term(Terminator::Jump(merge));
                self.switch_to(eb);
                for s in else_blk {
                    self.stmt(s);
                }
                self.set_term(Terminator::Jump(merge));
                self.switch_to(merge);
            }
            TStmt::While { cond, body } => {
                let head = self.new_block();
                let body_blk = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Jump(head));
                self.switch_to(head);
                let c = self.expr(cond);
                self.set_term(Terminator::Branch {
                    cond: c,
                    then_blk: body_blk,
                    else_blk: exit,
                });
                self.switch_to(body_blk);
                self.loops.push((head, exit));
                for s in body {
                    self.stmt(s);
                }
                self.loops.pop();
                self.set_term(Terminator::Jump(head));
                self.switch_to(exit);
            }
            TStmt::Return(v) => {
                let op = v.as_ref().map(|e| self.expr(e));
                self.set_term(Terminator::Return(op));
            }
            TStmt::Break => {
                let (_, exit) = *self.loops.last().expect("checked by typeck");
                self.set_term(Terminator::Jump(exit));
            }
            TStmt::Continue => {
                let (head, _) = *self.loops.last().expect("checked by typeck");
                self.set_term(Terminator::Jump(head));
            }
        }
    }

    fn assign_reg(&mut self, r: Reg, v: Operand) {
        match v {
            Operand::Imm(val) => self.emit(Instr::Const { dst: r, value: val }),
            Operand::Reg(src) if src == r => {}
            Operand::Reg(src) => self.emit(Instr::Bin {
                dst: r,
                op: BinOp::Or,
                a: Operand::Reg(src),
                b: Operand::Imm(0),
                width: Width::W64,
            }),
        }
    }

    fn local_array(&mut self, slot: usize) -> (Operand, Width) {
        let Place::ArrayBase(r) = self.places[slot] else {
            unreachable!("indexing a scalar slot");
        };
        let Type::Array(w, _) = self.func.locals[slot].ty else {
            unreachable!("array slot has array type");
        };
        (Operand::Reg(r), w)
    }

    /// Computes `base + zext(index) * elem_size` as a new register.
    fn element_addr(&mut self, base: Operand, index: &TExpr, elem: Width) -> Operand {
        let idx = self.expr(index);
        let idx64 = self.widen(idx, index.ty.scalar_width());
        let scaled = if elem.bytes() == 1 {
            idx64
        } else {
            let r = self.fresh();
            self.emit(Instr::Bin {
                dst: r,
                op: BinOp::Mul,
                a: idx64,
                b: Operand::Imm(elem.bytes()),
                width: Width::W64,
            });
            Operand::Reg(r)
        };
        let addr = self.fresh();
        self.emit(Instr::Bin {
            dst: addr,
            op: BinOp::Add,
            a: base,
            b: scaled,
            width: Width::W64,
        });
        Operand::Reg(addr)
    }

    /// Zero-extends `v` (known truncated at `from`) to 64 bits. Register
    /// values maintain the invariant of being truncated at their type width,
    /// so this is a no-op move.
    fn widen(&mut self, v: Operand, _from: Width) -> Operand {
        v
    }

    fn expr(&mut self, e: &TExpr) -> Operand {
        match &e.kind {
            TExprKind::Int(v) => Operand::Imm(*v),
            TExprKind::Local(slot) => match self.places[*slot] {
                Place::Scalar(r) => Operand::Reg(r),
                Place::ArrayBase(r) => Operand::Reg(r),
            },
            TExprKind::Global(gid) => {
                let base = self.fresh();
                self.emit(Instr::GlobalAddr {
                    dst: base,
                    global: GlobalId(*gid as u32),
                });
                let w = e.ty.scalar_width();
                let dst = self.fresh();
                self.emit(Instr::Load {
                    dst,
                    addr: base.into(),
                    width: w,
                });
                Operand::Reg(dst)
            }
            TExprKind::IndexGlobal { gid, index } => {
                let w = e.ty.scalar_width();
                let base = self.fresh();
                self.emit(Instr::GlobalAddr {
                    dst: base,
                    global: GlobalId(*gid as u32),
                });
                let addr = self.element_addr(base.into(), index, w);
                let dst = self.fresh();
                self.emit(Instr::Load {
                    dst,
                    addr,
                    width: w,
                });
                Operand::Reg(dst)
            }
            TExprKind::IndexLocal { slot, index } => {
                let (base, w) = self.local_array(*slot);
                let addr = self.element_addr(base, index, w);
                let dst = self.fresh();
                self.emit(Instr::Load {
                    dst,
                    addr,
                    width: w,
                });
                Operand::Reg(dst)
            }
            TExprKind::AddrGlobal(gid) => {
                let dst = self.fresh();
                self.emit(Instr::GlobalAddr {
                    dst,
                    global: GlobalId(*gid as u32),
                });
                Operand::Reg(dst)
            }
            TExprKind::AddrLocal(slot) => {
                let Place::ArrayBase(r) = self.places[*slot] else {
                    unreachable!("&scalar-local is rejected upstream");
                };
                Operand::Reg(r)
            }
            TExprKind::Bin { op, lhs, rhs } => self.bin(*op, lhs, rhs),
            TExprKind::Logic { is_and, lhs, rhs } => self.logic(*is_and, lhs, rhs),
            TExprKind::Un { op, expr } => {
                let a = self.expr(expr);
                let w = expr.ty.scalar_width();
                let uop = match op {
                    AstUnOp::Neg => UnOp::Neg,
                    AstUnOp::BitNot => UnOp::Not,
                    AstUnOp::LNot => UnOp::LNot,
                };
                let dst = self.fresh();
                self.emit(Instr::Un {
                    dst,
                    op: uop,
                    a,
                    width: w,
                });
                Operand::Reg(dst)
            }
            TExprKind::Cast(inner) => {
                let v = self.expr(inner);
                let from = inner.ty.scalar_width();
                let to = e.ty.scalar_width();
                if to >= from {
                    // Values are stored zero-extended; widening is free.
                    v
                } else {
                    let dst = self.fresh();
                    self.emit(Instr::Cast {
                        dst,
                        a: v,
                        from: to,
                    });
                    Operand::Reg(dst)
                }
            }
            TExprKind::Call {
                callee,
                args,
                str_arg,
            } => self.call(callee, args, str_arg.as_deref()),
            TExprKind::Spawn { func, args } => {
                let args: Vec<Operand> = args.iter().map(|a| self.expr(a)).collect();
                let dst = self.fresh();
                self.emit(Instr::Spawn {
                    dst,
                    func: FuncId(*func as u32),
                    args,
                });
                Operand::Reg(dst)
            }
        }
    }

    fn bin(&mut self, op: AstBinOp, lhs: &TExpr, rhs: &TExpr) -> Operand {
        let w = lhs.ty.scalar_width();
        let a = self.expr(lhs);
        let b = self.expr(rhs);
        let dst = self.fresh();
        use AstBinOp::*;
        match op {
            Add | Sub | Mul | Div | Rem | BitAnd | BitOr | BitXor | Shl | Shr => {
                let bop = match op {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    Mul => BinOp::Mul,
                    Div => BinOp::UDiv,
                    Rem => BinOp::URem,
                    BitAnd => BinOp::And,
                    BitOr => BinOp::Or,
                    BitXor => BinOp::Xor,
                    Shl => BinOp::Shl,
                    Shr => BinOp::LShr,
                    _ => unreachable!(),
                };
                self.emit(Instr::Bin {
                    dst,
                    op: bop,
                    a,
                    b,
                    width: w,
                });
            }
            Lt | Le | Gt | Ge | Eq | Ne => {
                let (pred, a, b) = match op {
                    Lt => (CmpOp::Ult, a, b),
                    Le => (CmpOp::Ule, a, b),
                    Gt => (CmpOp::Ult, b, a),
                    Ge => (CmpOp::Ule, b, a),
                    Eq => (CmpOp::Eq, a, b),
                    Ne => (CmpOp::Ne, a, b),
                    _ => unreachable!(),
                };
                self.emit(Instr::Cmp {
                    dst,
                    pred,
                    a,
                    b,
                    width: w,
                });
            }
            LAnd | LOr => unreachable!("logic ops are TExprKind::Logic"),
        }
        Operand::Reg(dst)
    }

    fn logic(&mut self, is_and: bool, lhs: &TExpr, rhs: &TExpr) -> Operand {
        let result = self.fresh();
        let l = self.expr(lhs);
        let rhs_blk = self.new_block();
        let short_blk = self.new_block();
        let merge = self.new_block();
        let (then_blk, else_blk) = if is_and {
            (rhs_blk, short_blk)
        } else {
            (short_blk, rhs_blk)
        };
        self.set_term(Terminator::Branch {
            cond: l,
            then_blk,
            else_blk,
        });
        self.switch_to(rhs_blk);
        let r = self.expr(rhs);
        self.assign_reg(result, r);
        self.set_term(Terminator::Jump(merge));
        self.switch_to(short_blk);
        self.emit(Instr::Const {
            dst: result,
            value: u64::from(!is_and),
        });
        self.set_term(Terminator::Jump(merge));
        self.switch_to(merge);
        Operand::Reg(result)
    }

    fn call(&mut self, callee: &Callee, args: &[TExpr], str_arg: Option<&str>) -> Operand {
        let arg_ops: Vec<Operand> = args.iter().map(|a| self.expr(a)).collect();
        match callee {
            Callee::User(fi) => {
                let dst = self.fresh();
                self.emit(Instr::Call {
                    dst: Some(dst),
                    func: FuncId(*fi as u32),
                    args: arg_ops,
                });
                Operand::Reg(dst)
            }
            Callee::Builtin(b) => match b {
                Builtin::Input(w) => {
                    let src = match arg_ops[0] {
                        Operand::Imm(v) => v as u32,
                        Operand::Reg(_) => 0, // dynamic sources collapse to stream 0
                    };
                    let dst = self.fresh();
                    self.emit(Instr::Input {
                        dst,
                        source: src,
                        width: *w,
                    });
                    Operand::Reg(dst)
                }
                Builtin::Alloc => {
                    let dst = self.fresh();
                    self.emit(Instr::Alloc {
                        dst,
                        size: arg_ops[0],
                    });
                    Operand::Reg(dst)
                }
                Builtin::Free => {
                    self.emit(Instr::Free { addr: arg_ops[0] });
                    Operand::Imm(0)
                }
                Builtin::Load(w) => {
                    let dst = self.fresh();
                    self.emit(Instr::Load {
                        dst,
                        addr: arg_ops[0],
                        width: *w,
                    });
                    Operand::Reg(dst)
                }
                Builtin::Store(w) => {
                    self.emit(Instr::Store {
                        addr: arg_ops[0],
                        value: arg_ops[1],
                        width: *w,
                    });
                    Operand::Imm(0)
                }
                Builtin::Print => {
                    self.emit(Instr::Print { value: arg_ops[0] });
                    Operand::Imm(0)
                }
                Builtin::PtWrite => {
                    self.emit(Instr::PtWrite { value: arg_ops[0] });
                    Operand::Imm(0)
                }
                Builtin::Clock => {
                    let dst = self.fresh();
                    self.emit(Instr::Clock { dst });
                    Operand::Reg(dst)
                }
                Builtin::Join => {
                    self.emit(Instr::Join { tid: arg_ops[0] });
                    Operand::Imm(0)
                }
                Builtin::Lock => {
                    self.emit(Instr::Lock { lock: arg_ops[0] });
                    Operand::Imm(0)
                }
                Builtin::Unlock => {
                    self.emit(Instr::Unlock { lock: arg_ops[0] });
                    Operand::Imm(0)
                }
                Builtin::Assert => {
                    self.emit(Instr::Assert {
                        cond: arg_ops[0],
                        message: str_arg.unwrap_or("assertion").to_string(),
                    });
                    Operand::Imm(0)
                }
                Builtin::Abort => {
                    self.emit(Instr::Abort {
                        message: str_arg.unwrap_or("abort").to_string(),
                    });
                    Operand::Imm(0)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::types::check;

    fn lower_src(src: &str) -> Program {
        let toks = lex(src).unwrap();
        lower(&check(&parse(&toks, src).unwrap()).unwrap())
    }

    #[test]
    fn lowers_straight_line() {
        let p = lower_src("fn main() { let x: u32 = 1 + 2; print(x); }");
        let f = p.func(p.entry());
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term, Some(Terminator::Return(None))));
    }

    #[test]
    fn lowers_if_to_branch() {
        let p =
            lower_src("fn main() { let x: u32 = 3; if x < 4 { print(1); } else { print(2); } }");
        let f = p.func(p.entry());
        assert!(f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Some(Terminator::Branch { .. }))));
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    fn lowers_while_with_back_edge() {
        let p = lower_src("fn main() { let i: u32 = 0; while i < 3 { i = i + 1; } }");
        let f = p.func(p.entry());
        // entry -> head -> body -> head, exit
        assert_eq!(f.blocks.len(), 4);
        let head_jumps: usize = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Some(Terminator::Jump(BlockId(1)))))
            .count();
        assert_eq!(head_jumps, 2, "entry and body both jump to loop head");
    }

    #[test]
    fn short_circuit_creates_blocks() {
        let p = lower_src("fn main() { let a: u32 = 1; if a < 2 && a > 0 { print(a); } }");
        let f = p.func(p.entry());
        assert!(f.blocks.len() >= 5);
    }

    #[test]
    fn globals_get_addresses() {
        let p = lower_src("global A: [u32; 4];\nglobal b: u8;\nfn main() { b = 1; A[0] = 2; }");
        assert_eq!(p.globals()[0].addr, GLOBAL_BASE);
        assert_eq!(p.globals()[1].addr, GLOBAL_BASE + 16);
        assert_eq!(p.globals()[0].size, 16);
    }

    #[test]
    fn array_index_scales_by_element_size() {
        let p = lower_src("global A: [u32; 8];\nfn main() { let i: u32 = 2; A[i] = 7; }");
        let f = p.func(p.entry());
        let has_mul = f.blocks[0].instrs.iter().any(|i| {
            matches!(
                i,
                Instr::Bin {
                    op: BinOp::Mul,
                    b: Operand::Imm(4),
                    ..
                }
            )
        });
        assert!(has_mul, "index must be scaled by 4:\n{}", p.display());
    }

    #[test]
    fn stack_arrays_allocated_at_entry() {
        let p = lower_src("fn main() { var buf: [u8; 32]; buf[0] = 1; }");
        let f = p.func(p.entry());
        assert!(matches!(
            f.blocks[0].instrs[0],
            Instr::StackAlloc { size: 32, .. }
        ));
    }

    #[test]
    fn call_and_return_lower() {
        let p = lower_src("fn f(a: u32) -> u32 { return a + 1; }\nfn main() { print(f(4)); }");
        let main = p.func(p.entry());
        assert!(main.blocks[0]
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Call { .. })));
        let f = p.func(FuncId(0));
        assert!(matches!(
            f.blocks[0].term,
            Some(Terminator::Return(Some(_)))
        ));
    }

    #[test]
    fn spawn_join_lock_lower() {
        let p = lower_src(
            "fn w(a: u32) { lock(0); unlock(0); }\nfn main() { let t: u64 = spawn w(1); join(t); }",
        );
        let main = p.func(p.entry());
        assert!(main.blocks[0]
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Spawn { .. })));
        assert!(main.blocks[0]
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Join { .. })));
    }

    #[test]
    fn break_continue_lower() {
        let p = lower_src(
            "fn main() { let i: u32 = 0; while true { i = i + 1; if i == 2 { continue; } if i == 5 { break; } } print(i); }",
        );
        assert!(p.func(p.entry()).blocks.len() >= 6);
    }

    #[test]
    fn narrowing_cast_emits_trunc() {
        let p = lower_src("fn main() { let x: u64 = 300; let y: u8 = x as u8; print(y); }");
        let f = p.func(p.entry());
        assert!(f.blocks[0].instrs.iter().any(|i| matches!(
            i,
            Instr::Cast {
                from: Width::W8,
                ..
            }
        )));
    }
}
