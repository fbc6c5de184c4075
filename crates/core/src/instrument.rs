//! The `ptwrite` instrumentation pass (paper §3.3.3 / §4).
//!
//! The original system implements this as a 156-line LLVM pass that inserts
//! `ptwrite` instructions and redeploys the application. Here the pass
//! clones the IR program and inserts [`Instr::PtWrite`] immediately after
//! each selected value-defining instruction. Because insertion shifts the
//! indices of later instructions in the same block, the pass also produces
//! the bidirectional [`InstrId`] maps needed to compare failure identities
//! and accumulate recording sites across iterations in *original* program
//! coordinates.

use er_minilang::ir::{Instr, InstrId, Operand, Program};
use std::collections::HashMap;
use std::fmt;

/// A recording site that does not name a location in the program — the
/// symptom of mixing coordinate spaces (instrumented vs. original) or of
/// selecting against a stale binary. Surfaced as a typed error so callers
/// can degrade (deploy uninstrumented) instead of dying on an index panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrumentError {
    /// The offending site (original-program coordinates).
    pub site: InstrId,
    /// Which coordinate was out of range.
    pub what: &'static str,
}

impl fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot instrument {:?}:{:?}[{}]: {}",
            self.site.func, self.site.block, self.site.index, self.what
        )
    }
}

impl std::error::Error for InstrumentError {}

/// An instrumented program plus coordinate maps.
#[derive(Debug, Clone)]
pub struct InstrumentedProgram {
    /// The program with `PtWrite` instructions inserted.
    pub program: Program,
    /// Instrumented id → original id (inserted `PtWrite`s map to `None`
    /// and are absent).
    to_original: HashMap<InstrId, InstrId>,
    /// Original id → instrumented id.
    from_original: HashMap<InstrId, InstrId>,
    /// Sites instrumented (original coordinates).
    pub sites: Vec<InstrId>,
}

impl InstrumentedProgram {
    /// Instruments `program` with `ptwrite` after each of `sites`
    /// (original-program coordinates). Sites without a destination register
    /// are skipped — there is no value to record.
    ///
    /// # Panics
    ///
    /// Panics if any site names a function or block the program does not
    /// have; use [`try_new`](Self::try_new) to get a typed error instead.
    pub fn new(program: &Program, sites: &[InstrId]) -> InstrumentedProgram {
        Self::try_new(program, sites).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`new`](Self::new), but rejects sites outside the program's
    /// function/block bounds with a typed [`InstrumentError`] instead of an
    /// index panic. (A site whose *instruction* index is past the block end
    /// is still silently skipped, matching the dst-less-site rule.)
    pub fn try_new(
        program: &Program,
        sites: &[InstrId],
    ) -> Result<InstrumentedProgram, InstrumentError> {
        if er_telemetry::enabled() {
            er_telemetry::counter!("instrument.rebuilds").incr();
            er_telemetry::counter!("instrument.sites_requested").add(sites.len() as u64);
        }
        let mut program = program.clone();
        let mut to_original = HashMap::new();
        let mut from_original = HashMap::new();
        let mut by_block: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        let mut applied: Vec<InstrId> = Vec::new();
        for site in sites {
            if site.index == InstrId::TERMINATOR {
                continue;
            }
            let func = program
                .funcs()
                .get(site.func.0 as usize)
                .ok_or(InstrumentError {
                    site: *site,
                    what: "function index out of range",
                })?;
            if func.blocks.get(site.block.0 as usize).is_none() {
                return Err(InstrumentError {
                    site: *site,
                    what: "block index out of range",
                });
            }
            by_block
                .entry((site.func.0, site.block.0))
                .or_default()
                .push(site.index);
        }
        // One edit for every block, so the flat code is rebuilt once.
        program.edit_funcs(|funcs| {
            for ((func, block), mut indices) in by_block {
                indices.sort_unstable();
                indices.dedup();
                let blk = &mut funcs[func as usize].blocks[block as usize];
                // Insert from the back so earlier indices stay valid,
                // tracking the shift for the id maps afterwards.
                let mut inserted_at: Vec<usize> = Vec::new();
                for &idx in indices.iter().rev() {
                    let Some(instr) = blk.instrs.get(idx) else {
                        continue;
                    };
                    let Some(dst) = instr.dst() else {
                        continue;
                    };
                    blk.instrs.insert(
                        idx + 1,
                        Instr::PtWrite {
                            value: Operand::Reg(dst),
                        },
                    );
                    inserted_at.push(idx);
                    applied.push(InstrId {
                        func: er_minilang::ir::FuncId(func),
                        block: er_minilang::ir::BlockId(block),
                        index: idx,
                    });
                }
                inserted_at.reverse(); // ascending original indices

                // Build the id maps for this block.
                let f = er_minilang::ir::FuncId(func);
                let b = er_minilang::ir::BlockId(block);
                let n_original = blk.instrs.len() - inserted_at.len();
                let mut shift = 0usize;
                let mut next_insert = 0usize;
                for orig_idx in 0..n_original {
                    let inst_idx = orig_idx + shift;
                    let o = InstrId {
                        func: f,
                        block: b,
                        index: orig_idx,
                    };
                    let i = InstrId {
                        func: f,
                        block: b,
                        index: inst_idx,
                    };
                    to_original.insert(i, o);
                    from_original.insert(o, i);
                    if next_insert < inserted_at.len() && inserted_at[next_insert] == orig_idx {
                        shift += 1;
                        next_insert += 1;
                    }
                }
            }
        });
        applied.sort_unstable();
        Ok(InstrumentedProgram {
            program,
            to_original,
            from_original,
            sites: applied,
        })
    }

    /// An identity instrumentation (first ER iteration: control flow only).
    pub fn unmodified(program: &Program) -> InstrumentedProgram {
        InstrumentedProgram {
            program: program.clone(),
            to_original: HashMap::new(),
            from_original: HashMap::new(),
            sites: Vec::new(),
        }
    }

    /// Maps an instrumented-program id back to original coordinates.
    /// Returns `None` only for inserted `PtWrite` instructions.
    pub fn to_original(&self, id: InstrId) -> Option<InstrId> {
        if self.sites.is_empty() {
            return Some(id);
        }
        if id.index == InstrId::TERMINATOR {
            return Some(id);
        }
        if let Some(&o) = self.to_original.get(&id) {
            return Some(o);
        }
        // Blocks never touched keep their ids; touched blocks have every
        // original instruction in the map, so a miss there is a PtWrite.
        let touched = self
            .sites
            .iter()
            .any(|s| s.func == id.func && s.block == id.block);
        (!touched).then_some(id)
    }

    /// Maps an original-program id into instrumented coordinates.
    pub fn from_original(&self, id: InstrId) -> InstrId {
        if id.index == InstrId::TERMINATOR {
            return id;
        }
        self.from_original.get(&id).copied().unwrap_or(id)
    }

    /// Translates a failure recorded against the instrumented program into
    /// original coordinates (for cross-iteration identity).
    pub fn failure_to_original(
        &self,
        failure: &er_minilang::error::Failure,
    ) -> er_minilang::error::Failure {
        let mut f = failure.clone();
        if let Some(o) = self.to_original(f.at) {
            f.at = o;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;
    use er_minilang::env::Env;
    use er_minilang::interp::Machine;
    use er_minilang::ir::{BlockId, FuncId};
    use er_minilang::trace::VecSink;

    fn site(func: u32, block: u32, index: usize) -> InstrId {
        InstrId {
            func: FuncId(func),
            block: BlockId(block),
            index,
        }
    }

    #[test]
    fn inserts_ptwrite_after_site() {
        let p = compile("fn main() { let x: u32 = 1 + 2; let y: u32 = x * 3; print(y); }").unwrap();
        // Record the first instruction's value.
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 0)]);
        let blk = &inst.program.funcs()[0].blocks[0];
        assert!(matches!(blk.instrs[1], Instr::PtWrite { .. }));
        assert_eq!(blk.instrs.len(), p.funcs()[0].blocks[0].instrs.len() + 1);
        // Instrumented run emits the value.
        let r = Machine::with_sink(&inst.program, Env::new(), VecSink::new()).run();
        assert_eq!(r.sink.ptwrites(), vec![3]);
    }

    #[test]
    fn id_maps_round_trip() {
        let p = compile("fn main() { let x: u32 = 1 + 2; let y: u32 = x * 3; print(y); }").unwrap();
        let n = p.funcs()[0].blocks[0].instrs.len();
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 0)]);
        for i in 0..n {
            let o = site(0, 0, i);
            let mapped = inst.from_original(o);
            assert_eq!(inst.to_original(mapped), Some(o));
        }
        // Index 0 unshifted; later ones shifted by one.
        assert_eq!(inst.from_original(site(0, 0, 0)), site(0, 0, 0));
        assert_eq!(inst.from_original(site(0, 0, 1)), site(0, 0, 2));
        // The inserted PtWrite has no original.
        assert_eq!(inst.to_original(site(0, 0, 1)), None);
    }

    #[test]
    fn multiple_sites_one_block() {
        let p = compile(
            "fn main() { let a: u32 = 1 + 1; let b: u32 = a + 1; let c: u32 = b + 1; print(c); }",
        )
        .unwrap();
        // Lowering materializes each `let` as a compute + move pair, so
        // index 0 computes `a = 2` and index 2 computes `b = 3`.
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 0), site(0, 0, 2)]);
        let r = Machine::with_sink(&inst.program, Env::new(), VecSink::new()).run();
        assert_eq!(r.sink.ptwrites(), vec![2, 3]);
        // Maps stay consistent.
        assert_eq!(inst.from_original(site(0, 0, 1)), site(0, 0, 2));
        assert_eq!(inst.from_original(site(0, 0, 2)), site(0, 0, 3));
        assert_eq!(inst.to_original(site(0, 0, 3)), Some(site(0, 0, 2)));
    }

    #[test]
    fn sites_without_destinations_are_skipped() {
        let p = compile("fn main() { print(7); }").unwrap();
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 0)]);
        assert!(inst.sites.is_empty());
        assert_eq!(
            inst.program.funcs()[0].blocks[0].instrs.len(),
            p.funcs()[0].blocks[0].instrs.len()
        );
    }

    #[test]
    fn untouched_blocks_map_identically() {
        let p =
            compile("fn main() { let a: u32 = 1 + 1; if a == 2 { print(1); } else { print(0); } }")
                .unwrap();
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 0)]);
        // Block 1 untouched.
        assert_eq!(inst.to_original(site(0, 1, 0)), Some(site(0, 1, 0)));
        assert_eq!(inst.from_original(site(0, 1, 0)), site(0, 1, 0));
    }

    #[test]
    fn out_of_range_sites_are_typed_errors() {
        let p = compile("fn main() { let x: u32 = 1 + 2; print(x); }").unwrap();
        let err = InstrumentedProgram::try_new(&p, &[site(7, 0, 0)]).unwrap_err();
        assert_eq!(err.what, "function index out of range");
        assert_eq!(err.site, site(7, 0, 0));
        let err = InstrumentedProgram::try_new(&p, &[site(0, 9, 0)]).unwrap_err();
        assert_eq!(err.what, "block index out of range");
        // An in-bounds block with an out-of-range *instruction* index stays
        // a silent skip (same rule as dst-less sites).
        let inst = InstrumentedProgram::try_new(&p, &[site(0, 0, 999)]).unwrap();
        assert!(inst.sites.is_empty());
    }

    #[test]
    fn failure_ids_translate() {
        let src = r#"
            fn main() {
                let a: u32 = 1 + 2;
                abort("crash");
            }
        "#;
        let p = compile(src).unwrap();
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 0)]);
        let r = Machine::new(&inst.program, Env::new()).run();
        let er_minilang::interp::RunOutcome::Failure(f) = r.outcome else {
            panic!("instrumented abort workload must fail, got {:?}", r.outcome)
        };
        let orig = inst.failure_to_original(&f);
        // The abort shifted by one in the instrumented program.
        assert_eq!(orig.at.index + 1, f.at.index);
    }
}
