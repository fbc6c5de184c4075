//! The `ptwrite` instrumentation pass (paper §3.3.3 / §4).
//!
//! The original system implements this as a 156-line LLVM pass that inserts
//! `ptwrite` instructions and redeploys the application. Here the IR is
//! left as it is: [`Program::recording`] lowers it into flat code with a
//! `ptwrite` slot after each selected value-defining instruction, and that
//! slot carries the instruction's own [`InstrId`]. Failures, trace sites,
//! machine states and selection therefore all speak the original program's
//! coordinates, whichever recording set the binary was built with.

use er_minilang::interp::WarmStart;
use er_minilang::ir::{InstrId, Program};
use er_symex::MachineState;
use std::sync::{Arc, OnceLock};

/// A program built to record a set of sites.
///
/// The binary also carries its [`WarmStart`], made by the first run that
/// asks for it and shared by every later run of this binary. A
/// [`rebuild`](Self::rebuild) translates the original binary's start
/// whenever none of its recorded sites ran in the prefix, and captures
/// its own only otherwise. The shepherd's state at that start is made
/// from it, also on first use, and shared by every occurrence shepherded
/// on this binary. Both live here, on the deployed binary and the one it
/// was rebuilt from, and nowhere wider: two investigations of one program
/// never share a capture.
#[derive(Debug)]
pub struct InstrumentedProgram {
    /// The program, its flat code recording `sites`.
    pub program: Program,
    /// Sites recorded, ascending.
    pub sites: Vec<InstrId>,
    /// The binary this one was rebuilt from, whose warm start it
    /// translates.
    original: Option<Arc<InstrumentedProgram>>,
    warm: OnceLock<Option<WarmStart>>,
    symbolic_warm: OnceLock<Option<MachineState>>,
    /// Warm runs still to be checked against cold ones.
    #[cfg(debug_assertions)]
    cold_checks: std::sync::atomic::AtomicU32,
    /// Symbolic warm starts still to be checked against cold shepherds.
    #[cfg(debug_assertions)]
    symbolic_checks: std::sync::atomic::AtomicU32,
}

impl InstrumentedProgram {
    /// Instruments `program` with `ptwrite` after each of `sites`. Sites
    /// that name no value-defining instruction of `program` are skipped:
    /// there is no value to record. With nothing to record this is
    /// [`unmodified`](Self::unmodified), sharing `program`'s code.
    pub fn new(program: &Program, sites: &[InstrId]) -> InstrumentedProgram {
        Self::instrument(program, sites, None)
    }

    /// `original`'s program instrumented to record `sites`, like
    /// [`new`](Self::new), taking its warm start from `original`'s by
    /// translation when the rebuild's prefix is the same.
    pub fn rebuild(original: &Arc<InstrumentedProgram>, sites: &[InstrId]) -> InstrumentedProgram {
        Self::instrument(&original.program, sites, Some(Arc::clone(original)))
    }

    fn instrument(
        program: &Program,
        sites: &[InstrId],
        original: Option<Arc<InstrumentedProgram>>,
    ) -> InstrumentedProgram {
        let mut applied: Vec<InstrId> = sites
            .iter()
            .copied()
            .filter(|&site| program.instr(site).is_some_and(|i| i.dst().is_some()))
            .collect();
        applied.sort_unstable();
        applied.dedup();
        let program = if applied.is_empty() {
            program.clone()
        } else {
            program.recording(&applied)
        };
        Self::built(program, applied, original)
    }

    /// An identity instrumentation (first ER iteration: control flow only).
    pub fn unmodified(program: &Program) -> InstrumentedProgram {
        Self::built(program.clone(), Vec::new(), None)
    }

    fn built(
        program: Program,
        sites: Vec<InstrId>,
        original: Option<Arc<InstrumentedProgram>>,
    ) -> InstrumentedProgram {
        InstrumentedProgram {
            program,
            sites,
            original,
            warm: OnceLock::new(),
            symbolic_warm: OnceLock::new(),
            #[cfg(debug_assertions)]
            cold_checks: std::sync::atomic::AtomicU32::new(2),
            #[cfg(debug_assertions)]
            symbolic_checks: std::sync::atomic::AtomicU32::new(1),
        }
    }

    /// The binary's warm start, made on first use: translated from the
    /// original binary's when this is a rebuild whose prefix is the same,
    /// captured otherwise; `None` if the program has no input-independent
    /// prefix to share.
    pub fn warm_start(&self) -> Option<&WarmStart> {
        self.warm
            .get_or_init(|| {
                if let Some(warm) = self.translated() {
                    er_telemetry::counter!("deploy.warm_reuses").incr();
                    return Some(warm);
                }
                er_telemetry::counter!("deploy.warm_captures").incr();
                WarmStart::capture(&self.program)
            })
            .as_ref()
    }

    /// The original binary's warm start translated to this binary. Under
    /// debug assertions a fresh capture checks the answer: it must equal
    /// the translation, or, where there is none, pause elsewhere.
    fn translated(&self) -> Option<WarmStart> {
        let original = self.original.as_ref()?;
        let start = original.warm_start()?;
        let warm = start.translate(&self.program);
        #[cfg(debug_assertions)]
        {
            let fresh = WarmStart::capture(&self.program);
            match &warm {
                Some(warm) => assert!(
                    fresh.as_ref() == Some(warm),
                    "a translated warm start equals the rebuild's own capture"
                ),
                None => assert!(
                    fresh.is_none_or(
                        |f| f.instrs() != start.instrs() || f.paused_op() != start.paused_op()
                    ),
                    "a rebuild with no translated warm start pauses elsewhere"
                ),
            }
        }
        warm
    }

    /// The shepherd's state at the binary's warm start
    /// ([`MachineState::from_warm`]), made on first use: by the first
    /// occurrence shepherded on this binary, never before. `None` when the
    /// binary has no warm start, or an empty one, whose state is the
    /// shepherd's cold start.
    pub fn symbolic_warm_start(&self) -> Option<&MachineState> {
        self.symbolic_warm
            .get_or_init(|| {
                let warm = self.warm_start().filter(|w| w.instrs() > 0)?;
                Some(MachineState::from_warm(&self.program, warm))
            })
            .as_ref()
    }

    /// Whether a warm run of this binary should also run cold and compare:
    /// true for the first two asks under debug assertions, never otherwise.
    pub(crate) fn check_warm_run(&self) -> bool {
        #[cfg(debug_assertions)]
        return take_check(&self.cold_checks);
        #[cfg(not(debug_assertions))]
        false
    }

    /// Whether the binary's symbolic warm start should be checked against
    /// a cold shepherd: true for the first ask under debug assertions,
    /// never otherwise.
    pub(crate) fn check_symbolic_warm(&self) -> bool {
        #[cfg(debug_assertions)]
        return take_check(&self.symbolic_checks);
        #[cfg(not(debug_assertions))]
        false
    }
}

/// Takes one of the checks `left` still holds, if any.
#[cfg(debug_assertions)]
fn take_check(left: &std::sync::atomic::AtomicU32) -> bool {
    use std::sync::atomic::Ordering;
    left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::code::Op;
    use er_minilang::compile;
    use er_minilang::env::Env;
    use er_minilang::interp::{Machine, RunOutcome};
    use er_minilang::ir::{BlockId, FuncId, Instr};
    use er_minilang::trace::VecSink;

    fn site(func: u32, block: u32, index: usize) -> InstrId {
        InstrId {
            func: FuncId(func),
            block: BlockId(block),
            index,
        }
    }

    #[test]
    fn records_after_site_without_editing_blocks() {
        let p = compile("fn main() { let x: u32 = 1 + 2; let y: u32 = x * 3; print(y); }").unwrap();
        // Record the first instruction's value.
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 0)]);
        let code = inst.program.code();
        assert!(matches!(code.ops()[1], Op::PtWrite { .. }));
        assert!(code.is_recording(1));
        assert_eq!(code.id_of(1), site(0, 0, 0));
        assert_eq!(code.ops().len(), p.code().ops().len() + 1);
        assert_eq!(
            inst.program.funcs()[0].blocks[0].instrs.len(),
            p.funcs()[0].blocks[0].instrs.len()
        );
        // Instrumented run emits the value.
        let r = Machine::with_sink(&inst.program, Env::new(), VecSink::new()).run();
        assert_eq!(r.sink.ptwrites(), vec![3]);
    }

    #[test]
    fn multiple_sites_one_block() {
        let p = compile(
            "fn main() { let a: u32 = 1 + 1; let b: u32 = a + 1; let c: u32 = b + 1; print(c); }",
        )
        .unwrap();
        // Lowering materializes each `let` as a compute + move pair, so
        // index 0 computes `a = 2` and index 2 computes `b = 3`.
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 2), site(0, 0, 0)]);
        assert_eq!(inst.sites, vec![site(0, 0, 0), site(0, 0, 2)]);
        let r = Machine::with_sink(&inst.program, Env::new(), VecSink::new()).run();
        assert_eq!(r.sink.ptwrites(), vec![2, 3]);
        // Every instruction keeps its slot lookup.
        let code = inst.program.code();
        assert_eq!(code.pc_of(site(0, 0, 1)), Some(2));
        assert_eq!(code.pc_of(site(0, 0, 2)), Some(3));
        assert_eq!(code.pc_of(site(0, 0, 3)), Some(5));
    }

    #[test]
    fn sites_without_destinations_are_skipped() {
        let p = compile("fn main() { print(7); }").unwrap();
        assert!(matches!(
            p.funcs()[0].blocks[0].instrs[0],
            Instr::Print { .. }
        ));
        // A dst-less instruction, a terminator, and ids past the program.
        let nothing = [site(0, 0, 0), site(0, 0, 1), site(0, 9, 0), site(7, 0, 0)];
        for sites in [&nothing[..], &[]] {
            let inst = InstrumentedProgram::new(&p, sites);
            assert!(inst.sites.is_empty());
            // Nothing to record: the program's own code, not a rebuild.
            assert!(std::sync::Arc::ptr_eq(inst.program.code(), p.code()));
        }
    }

    #[test]
    fn failures_keep_original_ids() {
        let src = r#"
            fn main() {
                let a: u32 = 1 + 2;
                abort("crash");
            }
        "#;
        let p = compile(src).unwrap();
        let fail = |p: &Program| match Machine::new(p, Env::new()).run().outcome {
            RunOutcome::Failure(f) => f,
            other => panic!("abort workload must fail, got {other:?}"),
        };
        let inst = InstrumentedProgram::new(&p, &[site(0, 0, 0)]);
        assert_eq!(fail(&inst.program), fail(&p));
    }
}
