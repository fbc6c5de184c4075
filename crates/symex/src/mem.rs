//! Symbolic memory: concrete bytes, a symbolic byte overlay, and
//! per-object solver arrays.
//!
//! Three tiers, cheapest first:
//!
//! 1. **Concrete** — backed by the interpreter's [`Memory`], used whenever
//!    address and value are both concrete and the containing object has
//!    never been accessed through a symbolic address.
//! 2. **Overlay** — symbolic *values* at concrete addresses live in a
//!    byte-granular map (`addr -> 8-bit expression`).
//! 3. **Array** — the first access through a *symbolic address* promotes
//!    the containing object to a solver array (its concrete bytes become
//!    the array's initial contents, overlay bytes become concrete-index
//!    stores). From then on every access to the object goes through
//!    `Read`/`Write` nodes — producing exactly the write chains and large
//!    symbolic objects whose cost §3.3.1 of the paper analyzes.

use crate::value::SymValue;
use er_minilang::error::RuntimeFault;
use er_minilang::ir::{BlockId, FuncId, Program};
use er_minilang::mem::Memory;
use er_minilang::value::Width;
use er_solver::expr::{ArrayNode, ArrayRef, BvOp, ExprPool, ExprRef};
use er_solver::hash::FxHashMap;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a memory object (its base address).
pub type ObjectId = u64;

/// Diagnostic name of a memory object. Stack and heap names are rendered
/// only when the object is promoted to a solver array, the one place a
/// name is read, so allocating an object formats nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectName {
    /// A global, or any object named up front.
    Named(String),
    /// A stack array allocated in `block` of `func`: `<func>.stack<block>`.
    Stack {
        /// Allocating function.
        func: FuncId,
        /// Allocating block.
        block: BlockId,
    },
    /// The `n`-th heap allocation of the run: `heap<n>`.
    Heap(u64),
}

impl From<&str> for ObjectName {
    fn from(name: &str) -> Self {
        ObjectName::Named(name.to_string())
    }
}

/// A tracked memory object (global, stack array, or heap allocation).
#[derive(Debug, Clone)]
pub struct SymObject {
    /// Base address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// Diagnostic name.
    pub name: ObjectName,
    /// Solver array, once the object has been promoted.
    pub array: Option<ArrayRef>,
    /// Number of symbolic (`Write`-node) stores applied.
    pub symbolic_writes: u64,
}

/// The symbolic address space.
#[derive(Debug, Clone)]
pub struct SymMemory {
    concrete: Memory,
    overlay: FxHashMap<u64, ExprRef>,
    objects: BTreeMap<u64, SymObject>,
    freed: Vec<(u64, u64)>,
    promoted: usize,
    /// Function names by id, for rendering [`ObjectName::Stack`].
    func_names: Arc<[String]>,
}

impl SymMemory {
    /// Creates the address space for `program`, registering its globals as
    /// objects.
    pub fn new(program: &Program) -> Self {
        let mut m = SymMemory {
            concrete: Memory::new(program),
            overlay: FxHashMap::default(),
            objects: BTreeMap::new(),
            freed: Vec::new(),
            promoted: 0,
            func_names: program.funcs.iter().map(|f| f.name.clone()).collect(),
        };
        for g in &program.globals {
            m.register_object(g.addr, g.size, ObjectName::Named(g.name.clone()));
        }
        m
    }

    /// The text of `name`.
    fn render_name(&self, name: &ObjectName) -> String {
        match name {
            ObjectName::Named(s) => s.clone(),
            ObjectName::Stack { func, block } => {
                format!("{}.stack{}", self.func_names[func.0 as usize], block.0)
            }
            ObjectName::Heap(n) => format!("heap{n}"),
        }
    }

    /// Registers an object at `[base, base+size)`.
    pub fn register_object(&mut self, base: u64, size: u64, name: ObjectName) {
        self.objects.insert(
            base,
            SymObject {
                base,
                size,
                name,
                array: None,
                symbolic_writes: 0,
            },
        );
    }

    /// The object containing `addr`, if any.
    pub fn object_containing(&self, addr: u64) -> Option<&SymObject> {
        let (_, obj) = self.objects.range(..=addr).next_back()?;
        (addr < obj.base + obj.size).then_some(obj)
    }

    /// All objects, ascending by base address.
    pub fn objects(&self) -> impl Iterator<Item = &SymObject> {
        self.objects.values()
    }

    /// Ranges freed so far (for use-after-free failure constraints).
    pub fn freed_ranges(&self) -> &[(u64, u64)] {
        &self.freed
    }

    /// Number of objects promoted to solver arrays.
    pub fn promoted_count(&self) -> usize {
        self.promoted
    }

    /// Allocates heap memory, mirroring the interpreter's allocator so
    /// addresses line up with the production run.
    pub fn heap_alloc(&mut self, size: u64, name: ObjectName) -> u64 {
        let base = self.concrete.heap_alloc(size);
        self.register_object(base, size.max(1), name);
        base
    }

    /// Frees a heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates the interpreter allocator's fault on invalid frees.
    pub fn heap_free(&mut self, addr: u64) -> Result<(), RuntimeFault> {
        self.concrete.heap_free(addr)?;
        if let Some(obj) = self.objects.get(&addr) {
            self.freed.push((obj.base, obj.size));
        }
        Ok(())
    }

    /// Allocates stack memory for `tid`.
    pub fn stack_alloc(&mut self, tid: u64, size: u64, name: ObjectName) -> u64 {
        let base = self.concrete.stack_alloc(tid, size);
        self.register_object(base, size.max(1), name);
        base
    }

    /// Current stack watermark for `tid`.
    pub fn stack_watermark(&self, tid: u64) -> u64 {
        self.concrete.stack_watermark(tid)
    }

    /// Pops stack allocations above `watermark`, dropping their objects and
    /// overlay bytes.
    pub fn stack_restore(&mut self, tid: u64, watermark: u64) {
        let top = self.concrete.stack_watermark(tid);
        if top <= watermark {
            return;
        }
        self.concrete.stack_restore(tid, watermark);
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

    /// Whether the byte range `[addr, addr+len)` might involve symbolic
    /// state (overlay bytes or a promoted object).
    fn range_is_plain(&self, addr: u64, len: u64) -> bool {
        if self.promoted > 0 {
            // Check the objects the range touches.
            let mut a = addr;
            while a < addr + len {
                match self.object_containing(a) {
                    Some(o) if o.array.is_some() => return false,
                    Some(o) => a = o.base + o.size,
                    None => a += 1,
                }
            }
        }
        if !self.overlay.is_empty() {
            for k in 0..len {
                if self.overlay.contains_key(&(addr + k)) {
                    return false;
                }
            }
        }
        true
    }

    /// Promotes the object containing `addr` to a solver array, absorbing
    /// its concrete bytes and overlay entries. Returns the object base.
    ///
    /// # Panics
    ///
    /// Panics if no object contains `addr`.
    pub fn promote(&mut self, pool: &mut ExprPool, addr: u64) -> ObjectId {
        let base = self
            .object_containing(addr)
            .expect("promote: no object at address")
            .base;
        let o = &self.objects[&base];
        if o.array.is_some() {
            return base;
        }
        let (size, name) = (o.size, self.render_name(&o.name));
        // Snapshot concrete contents as the base array's initial value.
        let mut init = Vec::with_capacity(size as usize);
        for k in 0..size {
            init.push(u64::from(
                self.concrete
                    .load(base + k, Width::W8)
                    .map(|v| v as u8)
                    .unwrap_or(0),
            ));
        }
        let mut arr = pool.array(name, size, 8, Some(init));
        // Absorb overlay bytes as concrete-index stores.
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
        let obj = self.objects.get_mut(&base).expect("object exists");
        obj.array = Some(arr);
        base
    }

    /// Loads `width` bytes from a concrete address.
    ///
    /// # Errors
    ///
    /// Propagates interpreter memory faults (null, unmapped, freed).
    pub fn load(
        &mut self,
        pool: &mut ExprPool,
        addr: u64,
        width: Width,
    ) -> Result<SymValue, RuntimeFault> {
        let len = width.bytes();
        // Fault check (and fast path) via the concrete memory.
        let concrete_val = self.concrete.load(addr, width)?;
        if self.range_is_plain(addr, len) {
            return Ok(SymValue::Concrete(concrete_val));
        }
        // Per-byte gather.
        let mut bytes: Vec<SymValue> = Vec::with_capacity(len as usize);
        for k in 0..len {
            bytes.push(self.load_byte(pool, addr + k)?);
        }
        Ok(combine_bytes(pool, &bytes))
    }

    fn load_byte(&mut self, pool: &mut ExprPool, addr: u64) -> Result<SymValue, RuntimeFault> {
        if let Some(obj) = self.object_containing(addr) {
            if let Some(arr) = obj.array {
                let base = obj.base;
                let idx = pool.bv_const(addr - base, 64);
                let e = pool.read(arr, idx);
                return Ok(SymValue::from_expr(pool, e));
            }
        }
        if let Some(&e) = self.overlay.get(&addr) {
            return Ok(SymValue::Sym(e));
        }
        Ok(SymValue::Concrete(self.concrete.load(addr, Width::W8)?))
    }

    /// Stores `value` at a concrete address.
    ///
    /// # Errors
    ///
    /// Propagates interpreter memory faults.
    pub fn store(
        &mut self,
        pool: &mut ExprPool,
        addr: u64,
        width: Width,
        value: SymValue,
    ) -> Result<(), RuntimeFault> {
        let len = width.bytes();
        if let SymValue::Concrete(v) = value {
            if self.range_is_plain(addr, len) {
                return self.concrete.store(addr, width, v);
            }
        }
        // Fault check (keeps the concrete map in step); contents may be
        // superseded by overlay/array bytes below.
        self.concrete
            .store(addr, width, value.as_concrete().unwrap_or(0))?;
        for k in 0..len {
            let byte = extract_byte(pool, value, k as u32);
            self.store_byte(pool, addr + k, byte);
        }
        Ok(())
    }

    fn store_byte(&mut self, pool: &mut ExprPool, addr: u64, byte: SymValue) {
        if let Some(obj) = self.object_containing(addr) {
            if let Some(arr) = obj.array {
                let base = obj.base;
                let idx = pool.bv_const(addr - base, 64);
                let v = byte.to_expr(pool, 8);
                let new_arr = pool.write(arr, idx, v);
                self.objects.get_mut(&base).expect("object exists").array = Some(new_arr);
                return;
            }
        }
        match byte {
            SymValue::Concrete(v) => {
                self.overlay.remove(&addr);
                // Concrete byte already written by the caller's fault-check
                // store for multi-byte values; write again for safety.
                let _ = self.concrete.store(addr, Width::W8, v);
            }
            SymValue::Sym(e) => {
                self.overlay.insert(addr, e);
            }
        }
    }

    /// Loads through a *symbolic* address known to fall inside the object
    /// based at `base` (which is promoted on demand). `addr` must be a
    /// 64-bit expression.
    pub fn load_symbolic(
        &mut self,
        pool: &mut ExprPool,
        base: ObjectId,
        addr: ExprRef,
        width: Width,
    ) -> SymValue {
        self.promote_base(pool, base);
        let arr = self.objects[&base].array.expect("promoted");
        let base_c = pool.bv_const(base, 64);
        let off = pool.bin(BvOp::Sub, addr, base_c);
        let mut bytes = Vec::with_capacity(width.bytes() as usize);
        for k in 0..width.bytes() {
            let kc = pool.bv_const(k, 64);
            let idx = pool.bin(BvOp::Add, off, kc);
            let e = pool.read(arr, idx);
            bytes.push(SymValue::from_expr(pool, e));
        }
        combine_bytes(pool, &bytes)
    }

    /// Stores through a symbolic address inside the object based at `base`.
    pub fn store_symbolic(
        &mut self,
        pool: &mut ExprPool,
        base: ObjectId,
        addr: ExprRef,
        width: Width,
        value: SymValue,
    ) {
        self.promote_base(pool, base);
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
        let obj = self.objects.get_mut(&base).expect("object exists");
        obj.array = Some(arr);
        obj.symbolic_writes += width.bytes();
    }

    fn promote_base(&mut self, pool: &mut ExprPool, base: ObjectId) {
        if self.objects[&base].array.is_none() {
            self.promote(pool, base);
        }
    }

    /// Length of the longest `Write` chain over any promoted object.
    pub fn longest_write_chain(&self, pool: &ExprPool) -> u64 {
        self.objects
            .values()
            .filter_map(|o| o.array)
            .map(|a| chain_len(pool, a))
            .max()
            .unwrap_or(0)
    }

    /// Direct access to the concrete backing store (read-only).
    pub fn concrete(&self) -> &Memory {
        &self.concrete
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

/// Combines little-endian bytes into one value of `8 * bytes.len()` bits.
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

/// Extracts byte `k` (little-endian) of `value` as an 8-bit value.
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

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::ir::Program;
    use er_solver::inc::IncrementalSolver;
    use er_solver::solve::{Budget, SatResult};

    fn setup() -> (SymMemory, ExprPool) {
        (SymMemory::new(&Program::default()), ExprPool::new())
    }

    #[test]
    fn concrete_round_trip() {
        let (mut m, mut p) = setup();
        let base = m.heap_alloc(64, "buf".into());
        m.store(&mut p, base, Width::W32, SymValue::Concrete(0xdead_beef))
            .unwrap();
        let v = m.load(&mut p, base, Width::W32).unwrap();
        assert_eq!(v, SymValue::Concrete(0xdead_beef));
        assert_eq!(p.len(), 0, "concrete traffic must not touch the pool");
    }

    #[test]
    fn symbolic_value_at_concrete_addr_round_trips() {
        let (mut m, mut p) = setup();
        let base = m.heap_alloc(64, "buf".into());
        let x = p.var("x", 32);
        m.store(&mut p, base + 8, Width::W32, SymValue::Sym(x))
            .unwrap();
        let v = m.load(&mut p, base + 8, Width::W32).unwrap();
        let SymValue::Sym(e) = v else {
            panic!("should stay symbolic")
        };
        // e must equal x semantically: check e != x is UNSAT.
        let ne = p.ne(e, x);
        assert_eq!(
            IncrementalSolver::new().check(&mut p, &[ne], &Budget::default()),
            SatResult::Unsat
        );
    }

    #[test]
    fn narrow_load_of_wide_symbolic_store() {
        let (mut m, mut p) = setup();
        let base = m.heap_alloc(16, "buf".into());
        let x = p.var("x", 32);
        m.store(&mut p, base, Width::W32, SymValue::Sym(x)).unwrap();
        // Byte 1 of x.
        let v = m.load(&mut p, base + 1, Width::W8).unwrap();
        let SymValue::Sym(e) = v else { panic!() };
        let eight = p.bv_const(8, 32);
        let sh = p.bin(BvOp::LShr, x, eight);
        let expect = p.trunc(sh, 8);
        let ne = p.ne(e, expect);
        assert_eq!(
            IncrementalSolver::new().check(&mut p, &[ne], &Budget::default()),
            SatResult::Unsat
        );
    }

    #[test]
    fn overwrite_with_concrete_clears_overlay() {
        let (mut m, mut p) = setup();
        let base = m.heap_alloc(16, "buf".into());
        let x = p.var("x", 32);
        m.store(&mut p, base, Width::W32, SymValue::Sym(x)).unwrap();
        m.store(&mut p, base, Width::W32, SymValue::Concrete(7))
            .unwrap();
        assert_eq!(
            m.load(&mut p, base, Width::W32).unwrap(),
            SymValue::Concrete(7)
        );
    }

    #[test]
    fn promotion_snapshots_concrete_and_overlay() {
        let (mut m, mut p) = setup();
        let base = m.heap_alloc(16, "buf".into());
        m.store(&mut p, base, Width::W8, SymValue::Concrete(0x11))
            .unwrap();
        let x = p.var("x", 8);
        m.store(&mut p, base + 1, Width::W8, SymValue::Sym(x))
            .unwrap();
        m.promote(&mut p, base);
        assert_eq!(m.promoted_count(), 1);
        // Concrete byte readable through the array path.
        assert_eq!(
            m.load(&mut p, base, Width::W8).unwrap(),
            SymValue::Concrete(0x11)
        );
        // Symbolic byte still symbolic.
        assert!(matches!(
            m.load(&mut p, base + 1, Width::W8).unwrap(),
            SymValue::Sym(_)
        ));
    }

    #[test]
    fn symbolic_address_store_then_read_back() {
        let (mut m, mut p) = setup();
        let base = m.heap_alloc(32, "buf".into());
        let i = p.var("i", 64);
        let basec = p.bv_const(base, 64);
        let addr = p.bin(BvOp::Add, basec, i);
        m.store_symbolic(&mut p, base, addr, Width::W8, SymValue::Concrete(9));
        let v = m.load_symbolic(&mut p, base, addr, Width::W8);
        let SymValue::Sym(e) = v else {
            panic!("expected symbolic read")
        };
        let nine = p.bv_const(9, 8);
        let ne = p.ne(e, nine);
        // Reading back at the same symbolic address always yields 9.
        assert_eq!(
            IncrementalSolver::new().check(&mut p, &[ne], &Budget::default()),
            SatResult::Unsat
        );
        assert!(m.longest_write_chain(&p) >= 1);
    }

    #[test]
    fn concrete_access_after_promotion_goes_through_array() {
        let (mut m, mut p) = setup();
        let base = m.heap_alloc(32, "buf".into());
        let i = p.var("i", 64);
        let basec = p.bv_const(base, 64);
        let addr = p.bin(BvOp::Add, basec, i);
        m.store_symbolic(&mut p, base, addr, Width::W8, SymValue::Concrete(9));
        // A concrete load may alias the symbolic store, so it must be
        // symbolic now.
        let v = m.load(&mut p, base + 3, Width::W8).unwrap();
        assert!(matches!(v, SymValue::Sym(_)));
    }

    #[test]
    fn freed_ranges_tracked_and_faults_propagate() {
        let (mut m, mut p) = setup();
        let a = m.heap_alloc(16, "a".into());
        m.heap_free(a).unwrap();
        assert_eq!(m.freed_ranges(), &[(a, 16)]);
        assert!(m.load(&mut p, a, Width::W8).is_err());
        assert!(m.load(&mut p, 0, Width::W8).is_err());
    }

    #[test]
    fn stack_restore_drops_objects_and_overlay() {
        let (mut m, mut p) = setup();
        let mark = m.stack_watermark(0);
        let buf = m.stack_alloc(0, 32, "frame.buf".into());
        let x = p.var("x", 8);
        m.store(&mut p, buf, Width::W8, SymValue::Sym(x)).unwrap();
        m.stack_restore(0, mark);
        assert!(m.object_containing(buf).is_none());
        // Fresh allocation reuses the space, now plain.
        let buf2 = m.stack_alloc(0, 32, "frame2.buf".into());
        assert_eq!(buf2, buf);
        assert_eq!(
            m.load(&mut p, buf2, Width::W8).unwrap(),
            SymValue::Concrete(0)
        );
    }
}
