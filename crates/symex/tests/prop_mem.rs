//! Property test for the symbolic memory: random interleavings of concrete
//! and symbolic stores/loads must agree with a reference byte map once the
//! symbolic variables are bound to their intended values.

use er_minilang::ir::Program;
use er_minilang::value::Width;
use er_solver::expr::{ExprPool, ExprRef, VarId};
use er_solver::simplify::eval_concrete;
use er_symex::{SymMemory, SymValue};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    /// Store a concrete value at a concrete offset.
    StoreConcrete { off: u64, w: Width, value: u64 },
    /// Store a fresh symbolic variable (with an intended value) at a
    /// concrete offset.
    StoreSymbolic { off: u64, w: Width, intended: u64 },
    /// Store through a symbolic address (base + fresh index variable with
    /// an intended value).
    StoreSymbolicAddr { idx: u64, w: Width, value: u64 },
    /// Load and check at a concrete offset.
    Load { off: u64, w: Width },
}

fn width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W8),
        Just(Width::W16),
        Just(Width::W32),
        Just(Width::W64)
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..56, width(), any::<u64>()).prop_map(|(off, w, value)| Op::StoreConcrete {
            off,
            w,
            value
        }),
        (0u64..56, width(), any::<u64>()).prop_map(|(off, w, intended)| Op::StoreSymbolic {
            off,
            w,
            intended
        }),
        (0u64..7, width(), any::<u64>()).prop_map(|(idx, w, value)| Op::StoreSymbolicAddr {
            idx,
            w,
            value
        }),
        (0u64..56, width()).prop_map(|(off, w)| Op::Load { off, w }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn symbolic_memory_agrees_with_reference(ops in prop::collection::vec(op(), 1..40)) {
        let mut pool = ExprPool::new();
        let mut mem = SymMemory::new(&Program::default());
        let base = mem.heap_alloc(64, "obj".into());
        // Reference byte map plus intended values for every variable.
        let mut reference = [0u8; 64];
        let mut bindings: HashMap<VarId, u64> = HashMap::new();
        let mut var_n = 0u32;

        let mut fresh = |pool: &mut ExprPool, bindings: &mut HashMap<VarId, u64>, v: u64, bits: u32| -> ExprRef {
            let var = pool.var(format!("v{var_n}"), bits);
            bindings.insert(VarId(var_n), v);
            var_n += 1;
            var
        };

        for op in ops {
            match op {
                Op::StoreConcrete { off, w, value } => {
                    mem.store(&mut pool, base + off, w, SymValue::Concrete(value)).unwrap();
                    for k in 0..w.bytes() {
                        reference[(off + k) as usize] = (value >> (8 * k)) as u8;
                    }
                }
                Op::StoreSymbolic { off, w, intended } => {
                    let v = w.trunc(intended);
                    let var = fresh(&mut pool, &mut bindings, v, w.bits());
                    mem.store(&mut pool, base + off, w, SymValue::Sym(var)).unwrap();
                    for k in 0..w.bytes() {
                        reference[(off + k) as usize] = (v >> (8 * k)) as u8;
                    }
                }
                Op::StoreSymbolicAddr { idx, w, value } => {
                    // addr = base + 8 * idxvar, idxvar intended = idx.
                    let idxvar = fresh(&mut pool, &mut bindings, idx, 64);
                    let eight = pool.bv_const(8, 64);
                    let scaled = pool.bin(er_solver::expr::BvOp::Mul, idxvar, eight);
                    let basec = pool.bv_const(base, 64);
                    let addr = pool.bin(er_solver::expr::BvOp::Add, basec, scaled);
                    mem.store_symbolic(&mut pool, base, addr, w, SymValue::Concrete(value));
                    let off = idx * 8;
                    for k in 0..w.bytes() {
                        reference[(off + k) as usize] = (value >> (8 * k)) as u8;
                    }
                }
                Op::Load { off, w } => {
                    let got = mem.load(&mut pool, base + off, w).unwrap();
                    let mut expect = 0u64;
                    for k in 0..w.bytes() {
                        expect |= u64::from(reference[(off + k) as usize]) << (8 * k);
                    }
                    let bindings = bindings.clone();
                    let got_val = match got {
                        SymValue::Concrete(v) => v,
                        SymValue::Sym(e) => eval_concrete(&pool, e, &move |id| {
                            bindings.get(&id).copied().unwrap_or(0)
                        }),
                    };
                    prop_assert_eq!(got_val, expect, "load at {} width {:?}", off, w);
                }
            }
        }
    }
}

/// The spill overlay against the byte-granular overlay it replaced.
///
/// `ByteOverlay` below keeps that overlay's semantics (one 8-bit
/// expression per symbolic byte, split at store time) as the oracle. Both
/// memories run the same operations, each over its own pool with the same
/// variables, and every load and every promoted array's cells must
/// evaluate alike under the intended values and under random ones.
mod spill_oracle {
    use er_minilang::ir::Program;
    use er_minilang::mem::{Memory, STACK_BASE};
    use er_minilang::value::Width;
    use er_solver::expr::{ArrayNode, ArrayRef, BvOp, CmpKind, ExprPool, ExprRef, VarId};
    use er_solver::simplify::eval_concrete;
    use er_symex::{SymMemory, SymValue};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// One tracked object of the oracle.
    struct Obj {
        size: u64,
        array: Option<ArrayRef>,
    }

    /// Symbolic memory with a byte-keyed overlay: a symbolic value stored
    /// at a concrete address is split into byte expressions on the spot.
    struct ByteOverlay {
        concrete: Memory,
        overlay: HashMap<u64, ExprRef>,
        objects: BTreeMap<u64, Obj>,
        freed: Vec<(u64, u64)>,
        promoted: usize,
    }

    impl ByteOverlay {
        fn new() -> Self {
            ByteOverlay {
                concrete: Memory::new(&Program::default()),
                overlay: HashMap::new(),
                objects: BTreeMap::new(),
                freed: Vec::new(),
                promoted: 0,
            }
        }

        fn object_containing(&self, addr: u64) -> Option<(u64, &Obj)> {
            let (&base, obj) = self.objects.range(..=addr).next_back()?;
            (addr < base + obj.size).then_some((base, obj))
        }

        fn heap_alloc(&mut self, size: u64) -> u64 {
            let base = self.concrete.heap_alloc(size);
            self.objects.insert(base, Obj { size, array: None });
            base
        }

        fn heap_free(&mut self, addr: u64) -> bool {
            if self.concrete.heap_free(addr).is_err() {
                return false;
            }
            self.freed.push((addr, self.objects[&addr].size));
            true
        }

        fn stack_alloc(&mut self, size: u64) -> u64 {
            let base = self.concrete.stack_alloc(0, size);
            self.objects.insert(base, Obj { size, array: None });
            base
        }

        fn stack_restore(&mut self, watermark: u64) {
            let top = self.concrete.stack_watermark(0);
            if top <= watermark {
                return;
            }
            self.concrete.stack_restore(0, watermark);
            let dead: Vec<u64> = self
                .objects
                .range(watermark..top)
                .map(|(&b, _)| b)
                .collect();
            for b in dead {
                self.objects.remove(&b);
            }
            self.overlay.retain(|&a, _| !(watermark..top).contains(&a));
        }

        fn range_is_plain(&self, addr: u64, len: u64) -> bool {
            if self.promoted > 0 {
                let mut a = addr;
                while a < addr + len {
                    match self.object_containing(a) {
                        Some((_, o)) if o.array.is_some() => return false,
                        Some((base, o)) => a = base + o.size,
                        None => a += 1,
                    }
                }
            }
            (0..len).all(|k| !self.overlay.contains_key(&(addr + k)))
        }

        fn promote(&mut self, pool: &mut ExprPool, addr: u64) {
            let (base, o) = self.object_containing(addr).expect("object");
            if o.array.is_some() {
                return;
            }
            let size = o.size;
            let init = (0..size)
                .map(|k| self.concrete.load(base + k, Width::W8).unwrap_or(0))
                .collect();
            let mut arr = pool.array("obj", size, 8, Some(init));
            let mut absorbed: Vec<(u64, ExprRef)> = self
                .overlay
                .iter()
                .filter(|(&a, _)| (base..base + size).contains(&a))
                .map(|(&a, &e)| (a, e))
                .collect();
            absorbed.sort_unstable_by_key(|(a, _)| *a);
            for (a, e) in absorbed {
                let idx = pool.bv_const(a - base, 64);
                arr = pool.write(arr, idx, e);
                self.overlay.remove(&a);
            }
            self.promoted += 1;
            self.objects.get_mut(&base).expect("object").array = Some(arr);
        }

        fn load(&mut self, pool: &mut ExprPool, addr: u64, width: Width) -> Option<SymValue> {
            let len = width.bytes();
            let concrete_val = self.concrete.load(addr, width).ok()?;
            if self.range_is_plain(addr, len) {
                return Some(SymValue::Concrete(concrete_val));
            }
            let mut bytes = Vec::new();
            for k in 0..len {
                let a = addr + k;
                let byte = match self.object_containing(a) {
                    Some((
                        base,
                        Obj {
                            array: Some(arr), ..
                        },
                    )) => {
                        let arr = *arr;
                        let idx = pool.bv_const(a - base, 64);
                        let e = pool.read(arr, idx);
                        SymValue::from_expr(pool, e)
                    }
                    _ => match self.overlay.get(&a) {
                        Some(&e) => SymValue::Sym(e),
                        None => SymValue::Concrete(self.concrete.load(a, Width::W8).ok()?),
                    },
                };
                bytes.push(byte);
            }
            Some(combine_bytes(pool, &bytes))
        }

        fn store(&mut self, pool: &mut ExprPool, addr: u64, width: Width, value: SymValue) -> bool {
            let len = width.bytes();
            if let SymValue::Concrete(v) = value {
                if self.range_is_plain(addr, len) {
                    return self.concrete.store(addr, width, v).is_ok();
                }
            }
            if self
                .concrete
                .store(addr, width, value.as_concrete().unwrap_or(0))
                .is_err()
            {
                return false;
            }
            for k in 0..len {
                let byte = extract_byte(pool, value, k as u32);
                let a = addr + k;
                if let Some((
                    base,
                    Obj {
                        array: Some(arr), ..
                    },
                )) = self.object_containing(a)
                {
                    let arr = *arr;
                    let idx = pool.bv_const(a - base, 64);
                    let v = byte.to_expr(pool, 8);
                    let new_arr = pool.write(arr, idx, v);
                    self.objects.get_mut(&base).expect("object").array = Some(new_arr);
                    continue;
                }
                match byte {
                    SymValue::Concrete(v) => {
                        self.overlay.remove(&a);
                        let _ = self.concrete.store(a, Width::W8, v);
                    }
                    SymValue::Sym(e) => {
                        self.overlay.insert(a, e);
                    }
                }
            }
            true
        }

        fn store_symbolic(
            &mut self,
            pool: &mut ExprPool,
            base: u64,
            addr: ExprRef,
            width: Width,
            value: SymValue,
        ) {
            self.promote(pool, base);
            let mut arr = self.objects[&base].array.expect("promoted");
            let base_c = pool.bv_const(base, 64);
            let off = pool.bin(BvOp::Sub, addr, base_c);
            for k in 0..width.bytes() {
                let kc = pool.bv_const(k, 64);
                let idx = pool.bin(BvOp::Add, off, kc);
                let byte = extract_byte(pool, value, k as u32);
                let v = byte.to_expr(pool, 8);
                arr = pool.write(arr, idx, v);
            }
            self.objects.get_mut(&base).expect("object").array = Some(arr);
        }
    }

    fn combine_bytes(pool: &mut ExprPool, bytes: &[SymValue]) -> SymValue {
        if bytes.iter().all(|b| b.is_concrete()) {
            let mut v = 0u64;
            for (k, b) in bytes.iter().enumerate() {
                v |= b.as_concrete().expect("concrete") << (8 * k);
            }
            return SymValue::Concrete(v);
        }
        let bits = 8 * bytes.len() as u32;
        let mut acc = pool.bv_const(0, bits);
        for (k, b) in bytes.iter().enumerate() {
            let be = b.to_expr(pool, 8);
            let wide = pool.zext(be, bits);
            let sh = pool.bv_const(8 * k as u64, bits);
            let shifted = pool.bin(BvOp::Shl, wide, sh);
            acc = pool.bin(BvOp::Or, acc, shifted);
        }
        SymValue::from_expr(pool, acc)
    }

    fn extract_byte(pool: &mut ExprPool, value: SymValue, k: u32) -> SymValue {
        match value {
            SymValue::Concrete(v) => SymValue::Concrete(v >> (8 * k) & 0xff),
            SymValue::Sym(e) => {
                let bits = pool.sort(e).bits().max(8);
                let e = SymValue::Sym(e).to_expr(pool, bits);
                let sh = pool.bv_const(u64::from(8 * k), bits);
                let shifted = pool.bin(BvOp::LShr, e, sh);
                let byte = pool.trunc(shifted, 8);
                SymValue::from_expr(pool, byte)
            }
        }
    }

    /// Where an access lands: an offset into the two adjacent 64-byte heap
    /// objects, or into thread 0's stack (unmapped until a frame grows it,
    /// and still mapped, outside any object, after the frame pops).
    #[derive(Debug, Clone, Copy)]
    enum At {
        Heap(u64),
        Stack(u64),
    }

    /// How a stored symbolic value is built from its fresh variable.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        /// The variable at the store's width.
        Var,
        /// An 8-bit variable zero-extended to the store's width.
        ZextByte,
        /// `v * 0x0101 + 3` at the store's width.
        Scaled,
        /// A 64-bit variable, wider than the store.
        Wide,
        /// The boolean `v < 0x80` (a one-bit sort).
        Cmp,
    }

    #[derive(Debug, Clone)]
    enum Op {
        StoreConcrete {
            at: At,
            w: Width,
            value: u64,
        },
        StoreSymbolic {
            at: At,
            w: Width,
            kind: Kind,
            intended: u64,
        },
        /// Store through `object + 8 * idx` with `idx` a fresh variable:
        /// promotes the object.
        StoreSymbolicAddr {
            second: bool,
            idx: u64,
            w: Width,
            value: u64,
            sym: bool,
        },
        Load {
            at: At,
            w: Width,
        },
        Promote {
            at: At,
        },
        /// A stack object, popped by the matching `StackRestore`.
        StackObject {
            size: u64,
        },
        StackRestore,
        HeapFree {
            second: bool,
        },
    }

    fn width() -> impl Strategy<Value = Width> {
        prop_oneof![
            Just(Width::W8),
            Just(Width::W16),
            Just(Width::W32),
            Just(Width::W64)
        ]
    }

    fn at() -> impl Strategy<Value = At> {
        prop_oneof![
            (0u64..128).prop_map(At::Heap),
            // Around the boundary between the two heap objects.
            (56u64..72).prop_map(At::Heap),
            (0u64..96).prop_map(At::Stack),
        ]
    }

    fn kind() -> impl Strategy<Value = Kind> {
        prop_oneof![
            Just(Kind::Var),
            Just(Kind::ZextByte),
            Just(Kind::Scaled),
            Just(Kind::Wide),
            Just(Kind::Cmp)
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        let store = || {
            (at(), width(), any::<u64>()).prop_map(|(at, w, value)| Op::StoreConcrete {
                at,
                w,
                value,
            })
        };
        let spill = || {
            (at(), width(), kind(), any::<u64>()).prop_map(|(at, w, kind, intended)| {
                Op::StoreSymbolic {
                    at,
                    w,
                    kind,
                    intended,
                }
            })
        };
        let load = || (at(), width()).prop_map(|(at, w)| Op::Load { at, w });
        // Stores and loads listed twice: they are most of a real trace.
        prop_oneof![
            store(),
            store(),
            spill(),
            spill(),
            load(),
            load(),
            (any::<bool>(), 0u64..7, width(), any::<u64>(), any::<bool>()).prop_map(
                |(second, idx, w, value, sym)| Op::StoreSymbolicAddr {
                    second,
                    idx,
                    w,
                    value,
                    sym
                }
            ),
            at().prop_map(|at| Op::Promote { at }),
            (1u64..48).prop_map(|size| Op::StackObject { size }),
            Just(Op::StackRestore),
            any::<bool>().prop_map(|second| Op::HeapFree { second }),
        ]
    }

    /// Both memories, their pools, and the variables' assignments.
    struct Pair {
        new: (SymMemory, ExprPool),
        old: (ByteOverlay, ExprPool),
        heap: u64,
        frames: Vec<u64>,
        /// Intended values first, then random ones; each maps variable
        /// ids to values.
        assignments: Vec<HashMap<VarId, u64>>,
        seeds: Vec<u64>,
        vars: u32,
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    impl Pair {
        fn new(seeds: Vec<u64>) -> Pair {
            let mut new = SymMemory::new(&Program::default());
            let mut old = ByteOverlay::new();
            let heap = new.heap_alloc(64, "a".into());
            assert_eq!(new.heap_alloc(64, "b".into()), heap + 64);
            assert_eq!(old.heap_alloc(64), heap);
            assert_eq!(old.heap_alloc(64), heap + 64);
            Pair {
                new: (new, ExprPool::new()),
                old: (old, ExprPool::new()),
                heap,
                frames: Vec::new(),
                assignments: vec![HashMap::new(); seeds.len() + 1],
                seeds,
                vars: 0,
            }
        }

        fn addr(&self, at: At) -> u64 {
            match at {
                At::Heap(off) => self.heap + off,
                At::Stack(off) => STACK_BASE + off,
            }
        }

        /// A fresh variable in both pools, with `intended` as its intended
        /// value.
        fn fresh(&mut self, bits: u32, intended: u64) -> (ExprRef, ExprRef) {
            let name = format!("v{}", self.vars);
            let (a, b) = (self.new.1.var(&name, bits), self.old.1.var(&name, bits));
            let id = VarId(self.vars);
            self.vars += 1;
            self.assignments[0].insert(id, intended);
            for (i, seed) in self.seeds.iter().enumerate() {
                self.assignments[i + 1].insert(id, splitmix(seed ^ u64::from(id.0)));
            }
            (a, b)
        }

        fn eval(&self, pool: &ExprPool, v: SymValue, assignment: &HashMap<VarId, u64>) -> u64 {
            match v {
                SymValue::Concrete(c) => c,
                SymValue::Sym(e) => {
                    eval_concrete(pool, e, &|id| assignment.get(&id).copied().unwrap_or(0))
                }
            }
        }

        /// Whether `a` (in the new pool) and `b` (in the oracle's) agree
        /// under every assignment.
        fn agree(&self, a: SymValue, b: SymValue) -> bool {
            self.assignments
                .iter()
                .all(|m| self.eval(&self.new.1, a, m) == self.eval(&self.old.1, b, m))
        }

        /// Every promoted array's cells, compared cell by cell.
        fn check_arrays(&mut self) -> Result<(), TestCaseError> {
            let promoted: Vec<(u64, u64, Option<ArrayRef>)> = self
                .new
                .0
                .objects()
                .map(|o| (o.base, o.size, o.array))
                .collect();
            prop_assert_eq!(promoted.len(), self.old.0.objects.len(), "object count");
            for (base, size, arr) in promoted {
                let old_arr = self.old.0.objects.get(&base).map(|o| (o.size, o.array));
                prop_assert_eq!(old_arr.map(|o| o.0), Some(size), "object at {:#x}", base);
                let old_arr = old_arr.and_then(|o| o.1);
                prop_assert_eq!(arr.is_some(), old_arr.is_some(), "promotion of {:#x}", base);
                let (Some(arr), Some(old_arr)) = (arr, old_arr) else {
                    continue;
                };
                prop_assert_eq!(
                    chain_len(&self.new.1, arr),
                    chain_len(&self.old.1, old_arr),
                    "write chain of {:#x}",
                    base
                );
                for i in 0..size {
                    let idx = self.new.1.bv_const(i, 64);
                    let a = self.new.1.read(arr, idx);
                    let idx = self.old.1.bv_const(i, 64);
                    let b = self.old.1.read(old_arr, idx);
                    prop_assert!(
                        self.agree(SymValue::Sym(a), SymValue::Sym(b)),
                        "cell {} of {:#x}",
                        i,
                        base
                    );
                }
            }
            prop_assert_eq!(self.new.0.freed_ranges(), &self.old.0.freed[..]);
            Ok(())
        }

        fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
            match *op {
                Op::StoreConcrete { at, w, value } => {
                    let addr = self.addr(at);
                    let v = SymValue::Concrete(w.trunc(value));
                    let a = self.new.0.store(&mut self.new.1, addr, w, v).is_ok();
                    let b = self.old.0.store(&mut self.old.1, addr, w, v);
                    prop_assert_eq!(a, b, "concrete store fault at {:#x}", addr);
                }
                Op::StoreSymbolic {
                    at,
                    w,
                    kind,
                    intended,
                } => {
                    let addr = self.addr(at);
                    let bits = w.bits();
                    let (a, b) = match kind {
                        Kind::Var | Kind::Scaled | Kind::Cmp => self.fresh(bits, intended),
                        Kind::ZextByte => self.fresh(8, intended),
                        Kind::Wide => self.fresh(64, intended),
                    };
                    let build = |pool: &mut ExprPool, v: ExprRef| match kind {
                        Kind::Var | Kind::Wide => v,
                        Kind::ZextByte => pool.zext(v, bits),
                        Kind::Scaled => {
                            let m = pool.bv_const(0x0101, bits);
                            let three = pool.bv_const(3, bits);
                            let p = pool.bin(BvOp::Mul, v, m);
                            pool.bin(BvOp::Add, p, three)
                        }
                        Kind::Cmp => {
                            let c = pool.bv_const(0x80, bits);
                            pool.cmp(CmpKind::Ult, v, c)
                        }
                    };
                    let a = build(&mut self.new.1, a);
                    let b = build(&mut self.old.1, b);
                    let ra = self
                        .new
                        .0
                        .store(&mut self.new.1, addr, w, SymValue::Sym(a))
                        .is_ok();
                    let rb = self.old.0.store(&mut self.old.1, addr, w, SymValue::Sym(b));
                    prop_assert_eq!(ra, rb, "symbolic store fault at {:#x}", addr);
                }
                Op::StoreSymbolicAddr {
                    second,
                    idx,
                    w,
                    value,
                    sym,
                } => {
                    let base = self.heap + if second { 64 } else { 0 };
                    let (ia, ib) = self.fresh(64, idx);
                    let (va, vb) = if sym {
                        let (a, b) = self.fresh(w.bits(), value);
                        (SymValue::Sym(a), SymValue::Sym(b))
                    } else {
                        (
                            SymValue::Concrete(w.trunc(value)),
                            SymValue::Concrete(w.trunc(value)),
                        )
                    };
                    let address = |pool: &mut ExprPool, i: ExprRef| {
                        let eight = pool.bv_const(8, 64);
                        let scaled = pool.bin(BvOp::Mul, i, eight);
                        let basec = pool.bv_const(base, 64);
                        pool.bin(BvOp::Add, basec, scaled)
                    };
                    let aa = address(&mut self.new.1, ia);
                    let ab = address(&mut self.old.1, ib);
                    self.new.0.store_symbolic(&mut self.new.1, base, aa, w, va);
                    self.old.0.store_symbolic(&mut self.old.1, base, ab, w, vb);
                    self.check_arrays()?;
                }
                Op::Load { at, w } => {
                    let addr = self.addr(at);
                    let a = self.new.0.load(&mut self.new.1, addr, w).ok();
                    let b = self.old.0.load(&mut self.old.1, addr, w);
                    prop_assert_eq!(a.is_some(), b.is_some(), "load fault at {:#x}", addr);
                    if let (Some(a), Some(b)) = (a, b) {
                        prop_assert!(self.agree(a, b), "load at {:#x} width {:?}", addr, w);
                    }
                }
                Op::Promote { at } => {
                    let addr = self.addr(at);
                    let inside = self.new.0.object_containing(addr).is_some();
                    prop_assert_eq!(inside, self.old.0.object_containing(addr).is_some());
                    if inside {
                        self.new.0.promote(&mut self.new.1, addr);
                        self.old.0.promote(&mut self.old.1, addr);
                        self.check_arrays()?;
                    }
                }
                Op::StackObject { size } => {
                    let mark = self.new.0.stack_watermark(0);
                    prop_assert_eq!(mark, self.old.0.concrete.stack_watermark(0));
                    let a = self.new.0.stack_alloc(0, size, "frame".into());
                    prop_assert_eq!(a, self.old.0.stack_alloc(size));
                    self.frames.push(mark);
                }
                Op::StackRestore => {
                    if let Some(mark) = self.frames.pop() {
                        self.new.0.stack_restore(0, mark);
                        self.old.0.stack_restore(mark);
                    }
                }
                Op::HeapFree { second } => {
                    let addr = self.heap + if second { 64 } else { 0 };
                    let a = self.new.0.heap_free(addr).is_ok();
                    prop_assert_eq!(a, self.old.0.heap_free(addr), "free of {:#x}", addr);
                }
            }
            Ok(())
        }
    }

    fn chain_len(pool: &ExprPool, mut a: ArrayRef) -> u64 {
        let mut n = 0;
        while let ArrayNode::Store { arr, .. } = pool.array_node(a) {
            n += 1;
            a = *arr;
        }
        n
    }

    /// Runs `ops` on both memories, then promotes every object and checks
    /// every array.
    fn check(ops: &[Op], seeds: Vec<u64>) -> Result<(), TestCaseError> {
        let mut pair = Pair::new(seeds);
        for op in ops {
            pair.apply(op)?;
        }
        let live: Vec<u64> = pair.new.0.objects().map(|o| o.base).collect();
        for base in live {
            pair.apply(&Op::Promote {
                at: match base.checked_sub(pair.heap) {
                    Some(off) if base < STACK_BASE => At::Heap(off),
                    _ => At::Stack(base - STACK_BASE),
                },
            })?;
        }
        pair.check_arrays()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn spill_overlay_agrees_with_byte_overlay(
            ops in prop::collection::vec(op(), 1..48),
            seeds in prop::collection::vec(any::<u64>(), 3),
        ) {
            check(&ops, seeds)?;
        }
    }

    /// The cases the random sequences must cover, spelled out: a concrete
    /// store over part of a symbolic word, a symbolic store over two
    /// earlier ones, misaligned, narrower and wider loads, a stack object
    /// popped and reused, a freed object promoted, and a store across the
    /// boundary of a promoted object.
    #[test]
    fn spill_overlay_agrees_on_the_named_cases() {
        use At::{Heap, Stack};
        let ops = [
            Op::StoreSymbolic {
                at: Heap(8),
                w: Width::W64,
                kind: Kind::Scaled,
                intended: 0x1122_3344_5566_7788,
            },
            Op::StoreConcrete {
                at: Heap(10),
                w: Width::W16,
                value: 0xbeef,
            },
            Op::Load {
                at: Heap(8),
                w: Width::W64,
            },
            Op::Load {
                at: Heap(9),
                w: Width::W16,
            },
            Op::StoreSymbolic {
                at: Heap(20),
                w: Width::W32,
                kind: Kind::Var,
                intended: 0xa0b0_c0d0,
            },
            Op::StoreSymbolic {
                at: Heap(24),
                w: Width::W32,
                kind: Kind::Wide,
                intended: 0x0102_0304_0506_0708,
            },
            Op::StoreSymbolic {
                at: Heap(22),
                w: Width::W32,
                kind: Kind::ZextByte,
                intended: 0x7f,
            },
            Op::Load {
                at: Heap(18),
                w: Width::W64,
            },
            Op::Load {
                at: Heap(23),
                w: Width::W8,
            },
            Op::StoreSymbolic {
                at: Heap(60),
                w: Width::W64,
                kind: Kind::Cmp,
                intended: 3,
            },
            Op::StackObject { size: 32 },
            Op::StoreSymbolic {
                at: Stack(4),
                w: Width::W32,
                kind: Kind::Var,
                intended: 9,
            },
            Op::Load {
                at: Stack(2),
                w: Width::W64,
            },
            Op::StackRestore,
            Op::Load {
                at: Stack(2),
                w: Width::W64,
            },
            Op::StackObject { size: 16 },
            Op::Load {
                at: Stack(4),
                w: Width::W32,
            },
            Op::HeapFree { second: true },
            Op::Promote { at: Heap(70) },
            Op::Promote { at: Heap(0) },
            Op::StoreSymbolic {
                at: Heap(60),
                w: Width::W64,
                kind: Kind::Var,
                intended: 5,
            },
            Op::Load {
                at: Heap(59),
                w: Width::W64,
            },
            Op::StoreSymbolicAddr {
                second: false,
                idx: 2,
                w: Width::W32,
                value: 7,
                sym: true,
            },
            Op::Load {
                at: Heap(14),
                w: Width::W32,
            },
        ];
        check(&ops, vec![1, 2, 3]).unwrap();
    }
}
