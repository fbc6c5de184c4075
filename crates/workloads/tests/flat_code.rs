//! The pc ↔ `InstrId` mapping of flat code, over every Table-1 program.
//!
//! Both executors run on pcs while failures, trace sites and snapshots
//! speak `InstrId`s, so the mapping must be a bijection on every program
//! the pipeline produces: the original programs and their instrumented
//! rebuilds. A snapshot carried across instrumentation must also resume
//! where it paused.

use er_core::instrument::InstrumentedProgram;
use er_core::shepherd;
use er_minilang::code::Pc;
use er_minilang::ir::{BlockId, FuncId, InstrId, Program};
use er_symex::SymMachine;
use er_workloads::Scale;

/// Every instruction and terminator of `p`, in layout order.
fn all_ids(p: &Program) -> Vec<InstrId> {
    let mut ids = Vec::new();
    for (fi, f) in p.funcs().iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            let (func, block) = (FuncId(fi as u32), BlockId(bi as u32));
            ids.extend((0..b.instrs.len()).map(|index| InstrId { func, block, index }));
            ids.push(InstrId {
                func,
                block,
                index: InstrId::TERMINATOR,
            });
        }
    }
    ids
}

/// Every value-defining site of `p`.
fn dst_sites(p: &Program) -> Vec<InstrId> {
    all_ids(p)
        .into_iter()
        .filter(|&id| p.instr(id).is_some_and(|i| i.dst().is_some()))
        .collect()
}

/// `id_of(pc_of(id)) == id` for every instruction and terminator, the
/// pcs are dense in layout order, and the code equals a fresh lowering.
fn assert_bijective(name: &str, p: &Program) {
    let code = p.code();
    let ids = all_ids(p);
    assert_eq!(ids.len(), code.ops().len(), "{name}: one slot per site");
    for (pc, &id) in ids.iter().enumerate() {
        assert_eq!(code.pc_of(id), Some(pc as Pc), "{name}: pc_of({id})");
        assert_eq!(code.id_of(pc as Pc), id, "{name}: id_of({pc})");
    }
    let fresh = Program::new(p.funcs().to_vec(), p.globals().to_vec(), p.entry());
    assert_eq!(
        **fresh.code(),
        **code,
        "{name}: code differs from a fresh lowering"
    );
}

#[test]
fn every_table1_program_maps_pcs_and_instr_ids_both_ways() {
    for w in er_workloads::all() {
        let p = w.program(Scale::TEST);
        assert_bijective(w.name, &p);
        let sites = dst_sites(&p);
        assert!(!sites.is_empty(), "{}", w.name);
        // Instrumented at every dst site at once, and at each alone: the
        // code rebuilt by the edit equals a fresh lowering.
        let all = InstrumentedProgram::new(&p, &sites);
        assert_eq!(all.sites.len(), sites.len());
        assert_bijective(w.name, &all.program);
        for &site in &sites {
            let one = InstrumentedProgram::new(&p, &[site]);
            assert_bijective(w.name, &one.program);
        }
    }
}

#[test]
fn remapped_snapshots_resume_at_the_same_instr_id() {
    let mut checked = 0;
    for w in er_workloads::all() {
        let d = w.deployment(Scale::TEST);
        let plain = InstrumentedProgram::unmodified(d.program());
        let Some(occ) = d.run_until_failure(&plain, None, 0, 50_000) else {
            continue;
        };
        let mut config = w.er_config().sym;
        config.checkpoint_every = 16;
        let run = shepherd::shepherd(
            &plain.program,
            &occ.trace,
            Some(&occ.failure_instrumented),
            config,
        )
        .expect("decodes")
        .run;
        let inst = InstrumentedProgram::new(d.program(), &dst_sites(d.program()));
        // An equal program built separately has equal but unshared code.
        let rebuilt = Program::new(
            d.program().funcs().to_vec(),
            d.program().globals().to_vec(),
            d.program().entry(),
        );
        for s in &run.checkpoints {
            let at = s.position();
            let remapped = s
                .clone()
                .remap_sites(&inst.program, |id| Some(inst.from_original(id)))
                .expect("every original site has an image");
            assert_eq!(remapped.position(), inst.from_original(at), "{}", w.name);
            assert_eq!(inst.to_original(remapped.position()), Some(at));
            // Resuming seeds the run's first checkpoint with the state it
            // starts from, whichever build of the program it runs.
            for (program, state, want) in [
                (&inst.program, remapped, inst.from_original(at)),
                (&rebuilt, s.clone(), at),
            ] {
                let resumed = SymMachine::resume(program, config, state).run(&[], None);
                assert_eq!(resumed.checkpoints[0].position(), want, "{}", w.name);
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "some run took checkpoints");
}
