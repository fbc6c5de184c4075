//! Hash-consed expression DAG over bitvectors, booleans, and arrays.

use crate::hash::FxHashMap;
use crate::simplify;
use std::collections::hash_map::Entry;
use std::fmt;

/// Reference to an expression node in an [`ExprPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprRef(pub u32);

/// Reference to an array node in an [`ExprPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayRef(pub u32);

/// A fresh symbolic variable's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// The sort (type) of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Boolean.
    Bool,
    /// Bitvector of `1..=64` bits.
    Bv(u32),
}

impl Sort {
    /// Bit width; booleans count as one bit.
    pub fn bits(self) -> u32 {
        match self {
            Sort::Bool => 1,
            Sort::Bv(b) => b,
        }
    }

    /// Mask of the low `bits()` bits.
    pub fn mask(self) -> u64 {
        let b = self.bits();
        if b == 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }
}

/// Bitvector binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvOp {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Unsigned divide (division by zero yields all-ones, as in SMT-LIB).
    UDiv,
    /// Unsigned remainder (remainder by zero yields the dividend).
    URem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (shift amount taken modulo the width).
    Shl,
    /// Logical shift right (shift amount taken modulo the width).
    LShr,
    /// Arithmetic shift right (shift amount taken modulo the width).
    AShr,
}

impl BvOp {
    /// Concrete evaluation at `bits` width.
    pub fn eval(self, bits: u32, a: u64, b: u64) -> u64 {
        let mask = Sort::Bv(bits).mask();
        let (a, b) = (a & mask, b & mask);
        let r = match self {
            BvOp::Add => a.wrapping_add(b),
            BvOp::Sub => a.wrapping_sub(b),
            BvOp::Mul => a.wrapping_mul(b),
            BvOp::UDiv => a.checked_div(b).unwrap_or(mask),
            BvOp::URem => a.checked_rem(b).unwrap_or(a),
            BvOp::And => a & b,
            BvOp::Or => a | b,
            BvOp::Xor => a ^ b,
            BvOp::Shl => a << (b % u64::from(bits)),
            BvOp::LShr => a >> (b % u64::from(bits)),
            BvOp::AShr => {
                let sh = b % u64::from(bits);
                let sign = (a >> (bits - 1)) & 1;
                let shifted = a >> sh;
                if sign == 1 && sh > 0 {
                    let fill = ((1u64 << sh) - 1) << (u64::from(bits) - sh);
                    (shifted | fill) & mask
                } else {
                    shifted
                }
            }
        };
        r & mask
    }
}

/// Comparison predicates producing booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

impl CmpKind {
    /// Concrete evaluation at `bits` width.
    pub fn eval(self, bits: u32, a: u64, b: u64) -> bool {
        let mask = Sort::Bv(bits).mask();
        let (a, b) = (a & mask, b & mask);
        let sext = |v: u64| -> i64 {
            let shift = 64 - bits;
            ((v << shift) as i64) >> shift
        };
        match self {
            CmpKind::Eq => a == b,
            CmpKind::Ult => a < b,
            CmpKind::Ule => a <= b,
            CmpKind::Slt => sext(a) < sext(b),
            CmpKind::Sle => sext(a) <= sext(b),
        }
    }
}

/// An expression node. Obtain instances through [`ExprPool`] constructors,
/// which hash-cons and simplify.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// Constant bitvector (value masked to width).
    Const {
        /// Bit width.
        bits: u32,
        /// Value.
        value: u64,
    },
    /// Boolean constant.
    BoolConst(bool),
    /// Free variable.
    Var {
        /// Identity.
        id: VarId,
        /// Bit width.
        bits: u32,
    },
    /// Bitvector binary operation.
    Bin {
        /// Operator.
        op: BvOp,
        /// Left operand.
        a: ExprRef,
        /// Right operand.
        b: ExprRef,
    },
    /// Comparison.
    Cmp {
        /// Predicate.
        op: CmpKind,
        /// Left operand.
        a: ExprRef,
        /// Right operand.
        b: ExprRef,
    },
    /// Boolean negation.
    Not(ExprRef),
    /// Boolean conjunction.
    AndB(ExprRef, ExprRef),
    /// Boolean disjunction.
    OrB(ExprRef, ExprRef),
    /// If-then-else over bitvectors.
    Ite {
        /// Boolean condition.
        cond: ExprRef,
        /// Value when true.
        then_e: ExprRef,
        /// Value when false.
        else_e: ExprRef,
    },
    /// Zero-extension to a wider bitvector.
    ZExt {
        /// Operand.
        a: ExprRef,
        /// Target width.
        bits: u32,
    },
    /// Truncation to a narrower bitvector.
    Trunc {
        /// Operand.
        a: ExprRef,
        /// Target width.
        bits: u32,
    },
    /// Boolean to bitvector (`cond ? 1 : 0`).
    BoolToBv {
        /// Operand.
        a: ExprRef,
        /// Target width.
        bits: u32,
    },
    /// Array element read; result width is the array's element width.
    Read {
        /// Array (possibly a `Write` chain).
        arr: ArrayRef,
        /// Element index.
        index: ExprRef,
    },
}

/// An array node: either a declared base array or a store on another array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArrayNode {
    /// A declared array; metadata lives in [`ExprPool::array_decl`].
    Base(u32),
    /// `Write(arr, index, value)`.
    Store {
        /// Array written to.
        arr: ArrayRef,
        /// Element index.
        index: ExprRef,
        /// Stored value (element width).
        value: ExprRef,
    },
}

/// Metadata for a declared (base) array.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Human-readable name (e.g. the memory object it models).
    pub name: String,
    /// Number of elements.
    pub len: u64,
    /// Element width in bits.
    pub elem_bits: u32,
    /// Initial contents; `None` means all zeros.
    pub init: Option<Vec<u64>>,
}

/// Metadata for a variable.
#[derive(Debug, Clone)]
pub struct VarDecl {
    /// Human-readable name.
    pub name: String,
    /// Bit width.
    pub bits: u32,
}

/// The expression pool: owns all nodes, hash-consing structurally equal
/// ones, and applies algebraic simplification in its constructors.
#[derive(Debug, Default, Clone)]
pub struct ExprPool {
    nodes: Vec<Node>,
    dedup: FxHashMap<Node, ExprRef>,
    arrays: Vec<ArrayNode>,
    arrays_dedup: FxHashMap<ArrayNode, ArrayRef>,
    array_decls: Vec<ArrayDecl>,
    vars: Vec<VarDecl>,
}

impl ExprPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live expression nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind `e`.
    pub fn node(&self, e: ExprRef) -> &Node {
        &self.nodes[e.0 as usize]
    }

    /// The array node behind `a`.
    pub fn array_node(&self, a: ArrayRef) -> &ArrayNode {
        &self.arrays[a.0 as usize]
    }

    /// Number of array nodes (bases and stores).
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Metadata of base array `id` (from [`ArrayNode::Base`]).
    pub fn array_decl(&self, id: u32) -> &ArrayDecl {
        &self.array_decls[id as usize]
    }

    /// Metadata of variable `id`.
    pub fn var_decl(&self, id: VarId) -> &VarDecl {
        &self.vars[id.0 as usize]
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The sort of `e`.
    pub fn sort(&self, e: ExprRef) -> Sort {
        match self.node(e) {
            Node::Const { bits, .. } | Node::Var { bits, .. } => Sort::Bv(*bits),
            Node::BoolConst(_)
            | Node::Cmp { .. }
            | Node::Not(_)
            | Node::AndB(..)
            | Node::OrB(..) => Sort::Bool,
            Node::Bin { a, .. } => self.sort(*a),
            Node::Ite { then_e, .. } => self.sort(*then_e),
            Node::ZExt { bits, .. } | Node::Trunc { bits, .. } | Node::BoolToBv { bits, .. } => {
                Sort::Bv(*bits)
            }
            Node::Read { arr, .. } => Sort::Bv(self.elem_bits(*arr)),
        }
    }

    /// Element width of the (base of) array `a`.
    pub fn elem_bits(&self, a: ArrayRef) -> u32 {
        match self.array_node(a) {
            ArrayNode::Base(id) => self.array_decl(*id).elem_bits,
            ArrayNode::Store { arr, .. } => self.elem_bits(*arr),
        }
    }

    /// Length (element count) of the (base of) array `a`.
    pub fn array_len(&self, a: ArrayRef) -> u64 {
        match self.array_node(a) {
            ArrayNode::Base(id) => self.array_decl(*id).len,
            ArrayNode::Store { arr, .. } => self.array_len(*arr),
        }
    }

    /// Interns `node`, reusing a structurally identical existing node.
    pub fn intern(&mut self, node: Node) -> ExprRef {
        // One hash and one probe; a new node is cloned once, into `nodes`.
        match self.dedup.entry(node) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let r = ExprRef(self.nodes.len() as u32);
                self.nodes.push(e.key().clone());
                e.insert(r);
                r
            }
        }
    }

    fn intern_array(&mut self, node: ArrayNode) -> ArrayRef {
        match self.arrays_dedup.entry(node) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let r = ArrayRef(self.arrays.len() as u32);
                self.arrays.push(e.key().clone());
                e.insert(r);
                r
            }
        }
    }

    /// A bitvector constant.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=64`.
    pub fn bv_const(&mut self, value: u64, bits: u32) -> ExprRef {
        assert!((1..=64).contains(&bits), "bad width {bits}");
        self.intern(Node::Const {
            bits,
            value: value & Sort::Bv(bits).mask(),
        })
    }

    /// A boolean constant.
    pub fn bool_const(&mut self, b: bool) -> ExprRef {
        self.intern(Node::BoolConst(b))
    }

    /// A fresh named variable of `bits` width.
    pub fn var(&mut self, name: impl Into<String>, bits: u32) -> ExprRef {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: name.into(),
            bits,
        });
        self.intern(Node::Var { id, bits })
    }

    /// A fresh base array.
    pub fn array(
        &mut self,
        name: impl Into<String>,
        len: u64,
        elem_bits: u32,
        init: Option<Vec<u64>>,
    ) -> ArrayRef {
        let id = self.array_decls.len() as u32;
        self.array_decls.push(ArrayDecl {
            name: name.into(),
            len,
            elem_bits,
            init,
        });
        self.intern_array(ArrayNode::Base(id))
    }

    /// `Write(arr, index, value)` — a new array with one element replaced.
    pub fn write(&mut self, arr: ArrayRef, index: ExprRef, value: ExprRef) -> ArrayRef {
        self.intern_array(ArrayNode::Store { arr, index, value })
    }

    /// `Read(arr, index)`, simplified when the whole access is concrete.
    pub fn read(&mut self, arr: ArrayRef, index: ExprRef) -> ExprRef {
        if let Some(v) = simplify::fold_read(self, arr, index) {
            return v;
        }
        self.intern(Node::Read { arr, index })
    }

    /// Binary bitvector operation (operands must share a width).
    ///
    /// # Panics
    ///
    /// Panics on mismatched operand sorts.
    pub fn bin(&mut self, op: BvOp, a: ExprRef, b: ExprRef) -> ExprRef {
        assert_eq!(self.sort(a), self.sort(b), "bin operand sorts differ");
        if let Some(r) = simplify::fold_bin(self, op, a, b) {
            return r;
        }
        self.intern(Node::Bin { op, a, b })
    }

    /// Comparison producing a boolean.
    ///
    /// # Panics
    ///
    /// Panics on mismatched operand sorts.
    pub fn cmp(&mut self, op: CmpKind, a: ExprRef, b: ExprRef) -> ExprRef {
        assert_eq!(self.sort(a), self.sort(b), "cmp operand sorts differ");
        if let Some(r) = simplify::fold_cmp(self, op, a, b) {
            return r;
        }
        self.intern(Node::Cmp { op, a, b })
    }

    /// `a != b` as `Not(Eq)`.
    pub fn ne(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        let eq = self.cmp(CmpKind::Eq, a, b);
        self.not(eq)
    }

    /// Boolean negation.
    pub fn not(&mut self, a: ExprRef) -> ExprRef {
        match self.node(a) {
            Node::BoolConst(b) => {
                let v = !*b;
                self.bool_const(v)
            }
            Node::Not(inner) => *inner,
            _ => self.intern(Node::Not(a)),
        }
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        match (self.node(a), self.node(b)) {
            (Node::BoolConst(false), _) | (_, Node::BoolConst(false)) => self.bool_const(false),
            (Node::BoolConst(true), _) => b,
            (_, Node::BoolConst(true)) => a,
            _ if a == b => a,
            _ => self.intern(Node::AndB(a.min(b), a.max(b))),
        }
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        match (self.node(a), self.node(b)) {
            (Node::BoolConst(true), _) | (_, Node::BoolConst(true)) => self.bool_const(true),
            (Node::BoolConst(false), _) => b,
            (_, Node::BoolConst(false)) => a,
            _ if a == b => a,
            _ => self.intern(Node::OrB(a.min(b), a.max(b))),
        }
    }

    /// If-then-else over same-width bitvectors.
    ///
    /// # Panics
    ///
    /// Panics if the branch sorts differ.
    pub fn ite(&mut self, cond: ExprRef, then_e: ExprRef, else_e: ExprRef) -> ExprRef {
        assert_eq!(self.sort(then_e), self.sort(else_e), "ite branch sorts");
        match self.node(cond) {
            Node::BoolConst(true) => return then_e,
            Node::BoolConst(false) => return else_e,
            _ => {}
        }
        if then_e == else_e {
            return then_e;
        }
        self.intern(Node::Ite {
            cond,
            then_e,
            else_e,
        })
    }

    /// Zero-extends `a` to `bits` (no-op if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is narrower than `a`.
    pub fn zext(&mut self, a: ExprRef, bits: u32) -> ExprRef {
        let w = self.sort(a).bits();
        assert!(bits >= w, "zext must widen");
        if bits == w {
            return a;
        }
        if let Node::Const { value, .. } = self.node(a) {
            let v = *value;
            return self.bv_const(v, bits);
        }
        self.intern(Node::ZExt { a, bits })
    }

    /// Truncates `a` to `bits` (no-op if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is wider than `a`.
    pub fn trunc(&mut self, a: ExprRef, bits: u32) -> ExprRef {
        let w = self.sort(a).bits();
        assert!(bits <= w, "trunc must narrow");
        if bits == w {
            return a;
        }
        if let Node::Const { value, .. } = self.node(a) {
            let v = *value;
            return self.bv_const(v, bits);
        }
        // trunc(zext(x)) where x already fits: collapse.
        if let Node::ZExt { a: inner, .. } = self.node(a) {
            let inner = *inner;
            let iw = self.sort(inner).bits();
            if iw == bits {
                return inner;
            }
            if iw < bits {
                return self.zext(inner, bits);
            }
        }
        self.intern(Node::Trunc { a, bits })
    }

    /// `cond ? 1 : 0` at `bits` width.
    pub fn bool_to_bv(&mut self, a: ExprRef, bits: u32) -> ExprRef {
        match self.node(a) {
            Node::BoolConst(b) => {
                let v = u64::from(*b);
                self.bv_const(v, bits)
            }
            _ => self.intern(Node::BoolToBv { a, bits }),
        }
    }

    /// `e != 0` as a boolean.
    pub fn nonzero(&mut self, e: ExprRef) -> ExprRef {
        match self.sort(e) {
            Sort::Bool => e,
            Sort::Bv(bits) => {
                // bool_to_bv(c) != 0  ≡  c
                if let Node::BoolToBv { a, .. } = self.node(e) {
                    return *a;
                }
                let zero = self.bv_const(0, bits);
                self.ne(e, zero)
            }
        }
    }

    /// Constant value of `e`, if it folded to one.
    pub fn as_const(&self, e: ExprRef) -> Option<u64> {
        match self.node(e) {
            Node::Const { value, .. } => Some(*value),
            Node::BoolConst(b) => Some(u64::from(*b)),
            _ => None,
        }
    }

    /// Renders `e` as an S-expression for debugging.
    pub fn display(&self, e: ExprRef) -> String {
        match self.node(e) {
            Node::Const { value, bits } => format!("{value}#{bits}"),
            Node::BoolConst(b) => b.to_string(),
            Node::Var { id, .. } => self.var_decl(*id).name.clone(),
            Node::Bin { op, a, b } => {
                format!("({op:?} {} {})", self.display(*a), self.display(*b))
            }
            Node::Cmp { op, a, b } => {
                format!("({op:?} {} {})", self.display(*a), self.display(*b))
            }
            Node::Not(a) => format!("(not {})", self.display(*a)),
            Node::AndB(a, b) => format!("(and {} {})", self.display(*a), self.display(*b)),
            Node::OrB(a, b) => format!("(or {} {})", self.display(*a), self.display(*b)),
            Node::Ite {
                cond,
                then_e,
                else_e,
            } => format!(
                "(ite {} {} {})",
                self.display(*cond),
                self.display(*then_e),
                self.display(*else_e)
            ),
            Node::ZExt { a, bits } => format!("(zext{bits} {})", self.display(*a)),
            Node::Trunc { a, bits } => format!("(trunc{bits} {})", self.display(*a)),
            Node::BoolToBv { a, bits } => format!("(b2v{bits} {})", self.display(*a)),
            Node::Read { arr, index } => {
                format!(
                    "(read {} {})",
                    self.display_array(*arr),
                    self.display(*index)
                )
            }
        }
    }

    /// Renders array `a` as an S-expression.
    pub fn display_array(&self, a: ArrayRef) -> String {
        match self.array_node(a) {
            ArrayNode::Base(id) => self.array_decl(*id).name.clone(),
            ArrayNode::Store { arr, index, value } => format!(
                "(write {} {} {})",
                self.display_array(*arr),
                self.display(*index),
                self.display(*value)
            ),
        }
    }
}

impl fmt::Display for ExprRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = ExprPool::new();
        let a = p.bv_const(5, 32);
        let b = p.bv_const(5, 32);
        assert_eq!(a, b);
        let x = p.var("x", 32);
        let s1 = p.bin(BvOp::Add, x, a);
        let s2 = p.bin(BvOp::Add, x, b);
        assert_eq!(s1, s2);
    }

    #[test]
    fn constant_folding_in_constructors() {
        let mut p = ExprPool::new();
        let a = p.bv_const(6, 32);
        let b = p.bv_const(7, 32);
        let m = p.bin(BvOp::Mul, a, b);
        assert_eq!(p.as_const(m), Some(42));
        let c = p.cmp(CmpKind::Ult, a, b);
        assert_eq!(p.as_const(c), Some(1));
    }

    #[test]
    fn sorts_propagate() {
        let mut p = ExprPool::new();
        let x = p.var("x", 8);
        let z = p.zext(x, 32);
        assert_eq!(p.sort(z), Sort::Bv(32));
        let y = p.var("y", 8);
        let c = p.cmp(CmpKind::Eq, x, y);
        assert_eq!(p.sort(c), Sort::Bool);
        let b = p.bool_to_bv(c, 16);
        assert_eq!(p.sort(b), Sort::Bv(16));
    }

    #[test]
    fn nonzero_of_booltobv_collapses() {
        let mut p = ExprPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let c = p.cmp(CmpKind::Ult, x, y);
        let bv = p.bool_to_bv(c, 8);
        assert_eq!(p.nonzero(bv), c);
    }

    #[test]
    fn double_not_collapses() {
        let mut p = ExprPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let c = p.cmp(CmpKind::Eq, x, y);
        let n = p.not(c);
        assert_eq!(p.not(n), c);
    }

    #[test]
    fn concrete_array_read_folds() {
        let mut p = ExprPool::new();
        let arr = p.array("V", 4, 32, Some(vec![10, 20, 30, 40]));
        let i = p.bv_const(2, 64);
        let r = p.read(arr, i);
        assert_eq!(p.as_const(r), Some(30));
    }

    #[test]
    fn read_of_matching_concrete_store_folds() {
        let mut p = ExprPool::new();
        let arr = p.array("V", 4, 32, None);
        let i = p.bv_const(1, 64);
        let v = p.bv_const(99, 32);
        let arr2 = p.write(arr, i, v);
        let r = p.read(arr2, i);
        assert_eq!(p.as_const(r), Some(99));
        // Read at a different concrete index skips the store.
        let j = p.bv_const(0, 64);
        let r0 = p.read(arr2, j);
        assert_eq!(p.as_const(r0), Some(0));
    }

    #[test]
    fn symbolic_read_stays_symbolic() {
        let mut p = ExprPool::new();
        let arr = p.array("V", 4, 32, None);
        let i = p.var("i", 64);
        let r = p.read(arr, i);
        assert!(p.as_const(r).is_none());
        assert_eq!(p.sort(r), Sort::Bv(32));
    }

    #[test]
    fn ite_simplifies_on_const_cond() {
        let mut p = ExprPool::new();
        let t = p.bool_const(true);
        let a = p.var("a", 32);
        let b = p.var("b", 32);
        assert_eq!(p.ite(t, a, b), a);
        let f = p.bool_const(false);
        assert_eq!(p.ite(f, a, b), b);
        let c = p.cmp(CmpKind::Eq, a, b);
        assert_eq!(p.ite(c, a, a), a);
    }

    #[test]
    fn display_is_readable() {
        let mut p = ExprPool::new();
        let x = p.var("x", 32);
        let one = p.bv_const(1, 32);
        let s = p.bin(BvOp::Add, x, one);
        assert_eq!(p.display(s), "(Add x 1#32)");
    }

    #[test]
    fn bvop_eval_masks() {
        assert_eq!(BvOp::Add.eval(8, 255, 1), 0);
        assert_eq!(BvOp::UDiv.eval(32, 5, 0), 0xffff_ffff);
        assert_eq!(BvOp::URem.eval(32, 5, 0), 5);
        assert_eq!(BvOp::AShr.eval(8, 0x80, 1), 0xc0);
        assert!(CmpKind::Slt.eval(8, 0xff, 0));
    }
}
