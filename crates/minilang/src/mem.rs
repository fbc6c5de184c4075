//! Flat byte-addressed memory with globals, a heap, and per-thread stacks.
//!
//! The layout mirrors a process address space so that the workload bugs can
//! behave like their real-world counterparts:
//!
//! * addresses below [`NULL_GUARD`] fault as null dereferences;
//! * heap overflows silently corrupt the *next* allocation (latent bugs),
//!   while touching freed memory faults immediately (use-after-free);
//! * stack buffer overruns corrupt adjacent frame data silently.

use crate::error::RuntimeFault;
use crate::ir::Program;
use crate::value::Width;
use std::collections::BTreeMap;

/// Addresses below this value fault as null dereferences.
pub const NULL_GUARD: u64 = 0x1000;
/// Base of the global segment (must match [`crate::lower::GLOBAL_BASE`]).
pub const GLOBAL_BASE: u64 = crate::lower::GLOBAL_BASE;
/// Base of the heap segment.
pub const HEAP_BASE: u64 = 0x2000_0000;
/// Base of thread 0's stack; thread `t` starts at `STACK_BASE + t * STACK_STRIDE`.
pub const STACK_BASE: u64 = 0x4000_0000;
/// Address distance between consecutive thread stacks. An address is
/// looked up only in the stack whose stride it falls in, so this is also
/// the largest stack a thread can address.
pub const STACK_STRIDE: u64 = 0x0100_0000;

/// Liveness of one heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AllocState {
    Live,
    Freed,
}

#[derive(Debug, Clone)]
struct HeapAlloc {
    size: u64,
    state: AllocState,
}

/// A growable, zero-initialized byte segment starting at `base`.
#[derive(Debug, Clone, Default)]
struct Segment {
    base: u64,
    data: Vec<u8>,
}

impl Segment {
    fn contains(&self, addr: u64, len: u64) -> bool {
        // Checked: an access ending past `u64::MAX` must not wrap around
        // and pass the bound.
        addr >= self.base
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.base + self.data.len() as u64)
    }

    fn slice(&self, addr: u64, len: u64) -> &[u8] {
        let off = (addr - self.base) as usize;
        &self.data[off..off + len as usize]
    }

    fn slice_mut(&mut self, addr: u64, len: u64) -> &mut [u8] {
        let off = (addr - self.base) as usize;
        &mut self.data[off..off + len as usize]
    }
}

/// One thread's stack: its segment plus the allocation top.
#[derive(Debug, Clone)]
struct Stack {
    seg: Segment,
    top: u64,
}

/// Which segment an access resolved to.
#[derive(Debug, Clone, Copy)]
enum SegId {
    Globals,
    Heap,
    Stack(usize),
}

/// The whole address space of one running program.
#[derive(Debug, Clone)]
pub struct Memory {
    globals: Segment,
    heap: Segment,
    heap_allocs: BTreeMap<u64, HeapAlloc>,
    heap_next: u64,
    /// Indexed by thread id; grown on a thread's first stack allocation.
    stacks: Vec<Stack>,
}

impl Memory {
    /// Creates the address space for `program`, laying out and initializing
    /// its globals.
    pub fn new(program: &Program) -> Self {
        let global_size = program
            .globals()
            .iter()
            .map(|g| g.addr + g.size - GLOBAL_BASE)
            .max()
            .unwrap_or(0);
        let mut globals = Segment {
            base: GLOBAL_BASE,
            data: vec![0; global_size as usize],
        };
        for g in program.globals() {
            if g.size == g.elem.bytes() {
                // Scalar global: apply its initializer.
                let bytes = g.init.to_le_bytes();
                let n = g.elem.bytes() as usize;
                globals
                    .slice_mut(g.addr, n as u64)
                    .copy_from_slice(&bytes[..n]);
            }
        }
        Memory {
            globals,
            heap: Segment {
                base: HEAP_BASE,
                data: Vec::new(),
            },
            heap_allocs: BTreeMap::new(),
            heap_next: HEAP_BASE,
            stacks: Vec::new(),
        }
    }

    /// Allocates `size` bytes on the heap (16-byte aligned, zeroed).
    /// Allocations are never reused, so use-after-free is always detectable.
    ///
    /// Returns 0, a null pointer, as `malloc` does, when the padded size
    /// does not fit in what is left of the heap segment, which ends at
    /// [`STACK_BASE`]; the heap is then unchanged.
    pub fn heap_alloc(&mut self, size: u64) -> u64 {
        let size = size.max(1);
        let base = self.heap_next;
        let Some(end) = size
            .checked_next_multiple_of(16)
            .and_then(|padded| base.checked_add(padded))
            .filter(|&end| end <= STACK_BASE)
        else {
            return 0;
        };
        self.heap_next = end;
        let needed = (self.heap_next - HEAP_BASE) as usize;
        if self.heap.data.len() < needed {
            self.heap.data.resize(needed, 0);
        }
        self.heap_allocs.insert(
            base,
            HeapAlloc {
                size,
                state: AllocState::Live,
            },
        );
        base
    }

    /// Frees the allocation starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults with [`RuntimeFault::InvalidFree`] if `addr` is not the base of
    /// a live allocation (including double frees).
    pub fn heap_free(&mut self, addr: u64) -> Result<(), RuntimeFault> {
        match self.heap_allocs.get_mut(&addr) {
            Some(a) if a.state == AllocState::Live => {
                a.state = AllocState::Freed;
                Ok(())
            }
            _ => Err(RuntimeFault::InvalidFree { addr }),
        }
    }

    /// The allocation (base, size, live) containing `addr`, if any.
    fn heap_alloc_containing(&self, addr: u64) -> Option<(u64, u64, bool)> {
        let (&base, a) = self.heap_allocs.range(..=addr).next_back()?;
        let padded = a.size.div_ceil(16) * 16;
        if addr < base + padded {
            Some((base, a.size, a.state == AllocState::Live))
        } else {
            None
        }
    }

    /// Allocates `size` bytes on thread `tid`'s stack. The returned address
    /// stays valid until [`Memory::stack_restore`] rolls past it.
    pub fn stack_alloc(&mut self, tid: u64, size: u64) -> u64 {
        let stack = self.stack_mut(tid);
        let addr = stack.top;
        stack.top += size.div_ceil(16) * 16;
        let needed = (stack.top - stack.seg.base) as usize;
        if stack.seg.data.len() < needed {
            stack.seg.data.resize(needed, 0);
        }
        addr
    }

    /// Thread `tid`'s stack, creating empty stacks up to it on first use.
    fn stack_mut(&mut self, tid: u64) -> &mut Stack {
        let i = tid as usize;
        while self.stacks.len() <= i {
            let base = STACK_BASE + self.stacks.len() as u64 * STACK_STRIDE;
            self.stacks.push(Stack {
                seg: Segment {
                    base,
                    data: Vec::new(),
                },
                top: base,
            });
        }
        &mut self.stacks[i]
    }

    /// Current stack watermark for `tid`; pass it back to
    /// [`Memory::stack_restore`] when the frame returns.
    pub fn stack_watermark(&self, tid: u64) -> u64 {
        self.stacks
            .get(tid as usize)
            .map_or(STACK_BASE + tid * STACK_STRIDE, |s| s.top)
    }

    /// Pops a frame's stack allocations, zeroing the released bytes so that
    /// later frames start from a clean slate.
    pub fn stack_restore(&mut self, tid: u64, watermark: u64) {
        if let Some(stack) = self.stacks.get_mut(tid as usize) {
            if watermark < stack.top {
                let seg = &mut stack.seg;
                let lo = (watermark - seg.base) as usize;
                let hi = ((stack.top - seg.base) as usize).min(seg.data.len());
                seg.data[lo..hi].fill(0);
                stack.top = watermark;
            }
        }
    }

    /// The segment holding all of `[addr, addr + len)`, if one does. A
    /// stack address names its thread directly:
    /// `(addr - STACK_BASE) / STACK_STRIDE`.
    fn segment_id(&self, addr: u64, len: u64) -> Option<SegId> {
        if self.globals.contains(addr, len) {
            return Some(SegId::Globals);
        }
        if self.heap.contains(addr, len) {
            return Some(SegId::Heap);
        }
        let i = usize::try_from(addr.checked_sub(STACK_BASE)? / STACK_STRIDE).ok()?;
        self.stacks
            .get(i)
            .filter(|s| s.seg.contains(addr, len))
            .map(|_| SegId::Stack(i))
    }

    fn segment(&self, id: SegId) -> &Segment {
        match id {
            SegId::Globals => &self.globals,
            SegId::Heap => &self.heap,
            SegId::Stack(i) => &self.stacks[i].seg,
        }
    }

    fn segment_mut(&mut self, id: SegId) -> &mut Segment {
        match id {
            SegId::Globals => &mut self.globals,
            SegId::Heap => &mut self.heap,
            SegId::Stack(i) => &mut self.stacks[i].seg,
        }
    }

    /// Checks an access and resolves the segment it lands in, once.
    fn resolve(&self, addr: u64, len: u64) -> Result<SegId, RuntimeFault> {
        if addr < NULL_GUARD {
            return Err(RuntimeFault::NullDeref { addr });
        }
        if (HEAP_BASE..STACK_BASE).contains(&addr) {
            // Heap accesses must land in an allocation; freed ones fault.
            match self.heap_alloc_containing(addr) {
                Some((_, _, true)) => {}
                Some((_, _, false)) => return Err(RuntimeFault::UseAfterFree { addr }),
                None => return Err(RuntimeFault::Unmapped { addr }),
            }
        }
        self.segment_id(addr, len)
            .ok_or(RuntimeFault::Unmapped { addr })
    }

    /// Loads `width` bytes little-endian from `addr`.
    ///
    /// # Errors
    ///
    /// Faults on null, unmapped, or freed addresses.
    pub fn load(&self, addr: u64, width: Width) -> Result<u64, RuntimeFault> {
        let len = width.bytes();
        let seg = self.segment(self.resolve(addr, len)?);
        let mut buf = [0u8; 8];
        buf[..len as usize].copy_from_slice(seg.slice(addr, len));
        Ok(u64::from_le_bytes(buf))
    }

    /// Stores the low `width` bytes of `value` little-endian at `addr`.
    ///
    /// # Errors
    ///
    /// Faults on null, unmapped, or freed addresses.
    pub fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), RuntimeFault> {
        let len = width.bytes();
        let id = self.resolve(addr, len)?;
        let bytes = value.to_le_bytes();
        self.segment_mut(id)
            .slice_mut(addr, len)
            .copy_from_slice(&bytes[..len as usize]);
        Ok(())
    }

    /// Copies out every mapped byte as `(addr, value)` runs — used by the
    /// REPT baseline to obtain a "core dump" of final memory.
    pub fn dump(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out = vec![
            (self.globals.base, self.globals.data.clone()),
            (self.heap.base, self.heap.data.clone()),
        ];
        for s in &self.stacks {
            out.push((s.seg.base, s.seg.data.clone()));
        }
        out.retain(|(_, d)| !d.is_empty());
        out
    }

    /// Total mapped bytes across all segments.
    pub fn mapped_bytes(&self) -> usize {
        self.globals.data.len()
            + self.heap.data.len()
            + self.stacks.iter().map(|s| s.seg.data.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;

    fn empty_mem() -> Memory {
        Memory::new(&Program::default())
    }

    #[test]
    fn heap_alloc_past_the_heap_segment_returns_null() {
        let mut m = empty_mem();
        let huge = [
            1 << 40,
            u64::MAX,
            u64::MAX - 7,
            768 << 20,
            STACK_BASE - HEAP_BASE + 1,
        ];
        for size in huge {
            assert_eq!(m.heap_alloc(size), 0, "{size:#x}");
        }
        assert_eq!(m.mapped_bytes(), 0, "a failed allocation maps nothing");
        let first = m.heap_alloc(16);
        assert_eq!(
            first, HEAP_BASE,
            "failed allocations leave the heap unchanged"
        );
        // One byte more than what is left of the segment, after padding.
        assert_eq!(m.heap_alloc(STACK_BASE - HEAP_BASE - 15), 0);
        assert_eq!(m.heap_alloc(16), HEAP_BASE + 16);
    }

    #[test]
    fn heap_alloc_and_rw() {
        let mut m = empty_mem();
        let p = m.heap_alloc(32);
        assert_eq!(p, HEAP_BASE);
        m.store(p + 4, Width::W32, 0xdead_beef).unwrap();
        assert_eq!(m.load(p + 4, Width::W32).unwrap(), 0xdead_beef);
        assert_eq!(m.load(p, Width::W32).unwrap(), 0, "fresh memory is zeroed");
    }

    #[test]
    fn null_deref_faults() {
        let m = empty_mem();
        assert!(matches!(
            m.load(0, Width::W8),
            Err(RuntimeFault::NullDeref { .. })
        ));
        assert!(matches!(
            m.load(NULL_GUARD - 1, Width::W8),
            Err(RuntimeFault::NullDeref { .. })
        ));
    }

    #[test]
    fn use_after_free_faults_but_overflow_is_latent() {
        let mut m = empty_mem();
        let a = m.heap_alloc(16);
        let b = m.heap_alloc(16);
        // Overflow from a into b: silent corruption (latent bug fuel).
        m.store(a + 20, Width::W32, 7).unwrap();
        assert_eq!(m.load(b + 4, Width::W32).unwrap(), 7);
        m.heap_free(a).unwrap();
        assert!(matches!(
            m.load(a, Width::W8),
            Err(RuntimeFault::UseAfterFree { .. })
        ));
        // b still fine.
        assert!(m.load(b, Width::W8).is_ok());
    }

    #[test]
    fn double_free_faults() {
        let mut m = empty_mem();
        let a = m.heap_alloc(8);
        m.heap_free(a).unwrap();
        assert!(matches!(
            m.heap_free(a),
            Err(RuntimeFault::InvalidFree { .. })
        ));
        assert!(matches!(
            m.heap_free(a + 4),
            Err(RuntimeFault::InvalidFree { .. })
        ));
    }

    #[test]
    fn unmapped_heap_hole_faults() {
        let mut m = empty_mem();
        let _ = m.heap_alloc(16);
        assert!(matches!(
            m.load(HEAP_BASE + 4096, Width::W8),
            Err(RuntimeFault::Unmapped { .. })
        ));
    }

    #[test]
    fn stack_frames_push_and_pop() {
        let mut m = empty_mem();
        let mark = m.stack_watermark(0);
        let a = m.stack_alloc(0, 64);
        m.store(a, Width::W64, 42).unwrap();
        assert_eq!(m.load(a, Width::W64).unwrap(), 42);
        m.stack_restore(0, mark);
        // Released and re-zeroed on reuse.
        let b = m.stack_alloc(0, 64);
        assert_eq!(b, a);
        assert_eq!(m.load(b, Width::W64).unwrap(), 0);
    }

    #[test]
    fn thread_stacks_are_disjoint() {
        let mut m = empty_mem();
        let a = m.stack_alloc(0, 16);
        let b = m.stack_alloc(1, 16);
        assert_eq!(b - a, STACK_STRIDE);
        m.store(a, Width::W32, 1).unwrap();
        m.store(b, Width::W32, 2).unwrap();
        assert_eq!(m.load(a, Width::W32).unwrap(), 1);
    }

    #[test]
    fn stack_lookup_goes_by_stride() {
        let mut m = empty_mem();
        // Thread 2 allocates before thread 1 ever does.
        let c = m.stack_alloc(2, 16);
        assert_eq!(c, STACK_BASE + 2 * STACK_STRIDE);
        m.store(c + 8, Width::W64, 9).unwrap();
        assert_eq!(m.load(c + 8, Width::W64).unwrap(), 9);
        assert_eq!(m.stack_watermark(1), STACK_BASE + STACK_STRIDE);
        // Thread 1's stride has no mapped bytes, and an access straddling
        // the end of thread 2's segment faults.
        assert!(matches!(
            m.load(STACK_BASE + STACK_STRIDE, Width::W8),
            Err(RuntimeFault::Unmapped { .. })
        ));
        assert!(matches!(
            m.load(c + 12, Width::W64),
            Err(RuntimeFault::Unmapped { .. })
        ));
        // Far past every stack.
        assert!(matches!(
            m.load(STACK_BASE + 1000 * STACK_STRIDE, Width::W8),
            Err(RuntimeFault::Unmapped { .. })
        ));
    }

    #[test]
    fn access_wrapping_past_the_address_space_end_is_unmapped() {
        let p = Program::new(
            vec![],
            vec![crate::ir::Global {
                name: "A".into(),
                addr: GLOBAL_BASE,
                size: 32,
                elem: Width::W64,
                init: 0,
            }],
            crate::ir::FuncId(0),
        );
        let mut m = Memory::new(&p);
        // 8 bytes at 2^64 - 8 end exactly at 2^64, which wraps to 0.
        let addr = u64::MAX - 7;
        assert!(matches!(
            m.load(addr, Width::W64),
            Err(RuntimeFault::Unmapped { addr: a }) if a == addr
        ));
        assert!(matches!(
            m.store(addr, Width::W64, 1),
            Err(RuntimeFault::Unmapped { .. })
        ));
        assert!(matches!(
            m.load(u64::MAX, Width::W16),
            Err(RuntimeFault::Unmapped { .. })
        ));
    }

    #[test]
    fn dump_covers_mapped_memory() {
        let mut m = empty_mem();
        let p = m.heap_alloc(8);
        m.store(p, Width::W8, 0xaa).unwrap();
        let dump = m.dump();
        assert!(dump
            .iter()
            .any(|(base, d)| *base == HEAP_BASE && d[0] == 0xaa));
        assert!(m.mapped_bytes() >= 8);
    }
}
