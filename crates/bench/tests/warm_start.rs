//! Warm-started production runs equal cold ones, on every Table-1 program.
//!
//! `Deployment::run_once` starts each run of a binary from the binary's
//! warm start: its input-independent prefix, run once, with the prefix's
//! trace events replayed under the run's own schedule. For every workload,
//! on the plain build and on the build recording every value-defining
//! site (whose prefix ends at the first recording slot), runs 0..16 must
//! match a cold run of the same environment and schedule: outcome,
//! instruction count, output, final memory, PT bytes and PT statistics.

use er_core::deploy::Deployment;
use er_core::instrument::InstrumentedProgram;
use er_minilang::interp::{Machine, RunReport, WarmStart};
use er_minilang::ir::{BlockId, FuncId, InstrId, Program};
use er_pt::sink::{PtConfig, PtSink, PtTrace};
use er_workloads::Scale;

/// Every value-defining site of `p`.
fn dst_sites(p: &Program) -> Vec<InstrId> {
    let mut sites = Vec::new();
    for (fi, f) in p.funcs().iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (index, instr) in b.instrs.iter().enumerate() {
                if instr.dst().is_some() {
                    sites.push(InstrId {
                        func: FuncId(fi as u32),
                        block: BlockId(bi as u32),
                        index,
                    });
                }
            }
        }
    }
    sites
}

/// Production run `run` of `inst`, executed from the entry.
fn cold(d: &Deployment, inst: &InstrumentedProgram, run: u64) -> (RunReport<()>, PtTrace) {
    let sink = PtSink::new(PtConfig::default());
    let report = Machine::with_sink(&inst.program, d.env_for(run), sink)
        .with_sched(d.sched_for(run))
        .run();
    split(report)
}

/// `report`'s trace, finalized, apart from the rest of it.
fn split(report: RunReport<PtSink>) -> (RunReport<()>, PtTrace) {
    let trace = report.sink.finish();
    let rest = RunReport {
        outcome: report.outcome,
        output: report.output,
        instr_count: report.instr_count,
        mem: report.mem,
        sink: (),
    };
    (rest, trace)
}

#[test]
fn warm_runs_equal_cold_runs_on_every_workload() {
    for w in er_workloads::all() {
        let d = w.deployment(Scale::TEST);
        let plain = InstrumentedProgram::unmodified(d.program());
        let recorded = InstrumentedProgram::new(d.program(), &dst_sites(d.program()));
        for (build, inst) in [("plain", &plain), ("recorded", &recorded)] {
            let warm = WarmStart::capture(&inst.program)
                .unwrap_or_else(|| panic!("{} {build}: no prefix", w.name));
            assert!(warm.instrs() > 0, "{} {build}", w.name);
            for run in 0..16u64 {
                let at = format!("{} {build} run {run}", w.name);
                let (cold, cold_trace) = cold(&d, inst, run);

                let (outcome, trace, instr_count) = d.run_once(inst, run);
                assert_eq!(outcome, cold.outcome, "{at}: run_once outcome");
                assert_eq!(instr_count, cold.instr_count, "{at}: run_once count");
                assert_eq!(trace.bytes, cold_trace.bytes, "{at}: run_once trace");
                assert_eq!(trace.stats, cold_trace.stats, "{at}: run_once stats");

                let sink = PtSink::new(PtConfig::default());
                let machine =
                    Machine::warm(&inst.program, &warm, d.env_for(run), sink, d.sched_for(run))
                        .unwrap_or_else(|| panic!("{at}: the budget covers the prefix"));
                let (report, trace) = split(machine.run());
                assert_eq!(report.outcome, cold.outcome, "{at}: outcome");
                assert_eq!(report.instr_count, cold.instr_count, "{at}: count");
                assert_eq!(report.output, cold.output, "{at}: output");
                assert_eq!(report.mem.dump(), cold.mem.dump(), "{at}: memory");
                assert_eq!(trace.bytes, cold_trace.bytes, "{at}: trace");
                assert_eq!(trace.stats, cold_trace.stats, "{at}: trace stats");
                assert_eq!(trace.wrapped, cold_trace.wrapped, "{at}: wrap");
            }
        }
        // The recorded build pauses at its first recording slot, no later
        // than the plain build's first input read.
        let (p, r) = (plain.warm_start(), recorded.warm_start());
        assert!(r.unwrap().instrs() <= p.unwrap().instrs(), "{}", w.name);
    }
}
