//! Warm-started production runs equal cold ones, on every Table-1 program.
//!
//! `Deployment::run_once` starts each run of a binary from the binary's
//! warm start: its input-independent prefix, run once, with the prefix's
//! trace events replayed under the run's own schedule. For every workload,
//! on the plain build and on the build recording every value-defining
//! site (whose prefix ends at the first recording slot), runs 0..16 must
//! match a cold run of the same environment and schedule: outcome,
//! instruction count, output, final memory, PT bytes and PT statistics.
//!
//! A rebuild takes its warm start from the original binary's by
//! translation. For every workload and every value-defining site, the
//! rebuild recording that site alone must have a translated start equal to
//! its own capture, or none exactly when that capture pauses elsewhere,
//! and its production runs must match cold ones. One serial reconstruction
//! of each workload captures one prefix, the original's: every rebuild it
//! makes translates.

use er_core::deploy::Deployment;
use er_core::instrument::InstrumentedProgram;
use er_core::reconstruct::Reconstructor;
use er_minilang::interp::{Machine, RunReport, WarmStart};
use er_minilang::ir::{BlockId, FuncId, InstrId, Program};
use er_pt::sink::{PtConfig, PtSink, PtTrace};
use er_workloads::Scale;
use std::sync::Arc;

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

/// Asserts that production run `run` of `inst` is the cold run.
fn assert_run_once_is_cold(d: &Deployment, inst: &InstrumentedProgram, run: u64, at: &str) {
    let (cold, cold_trace) = cold(d, inst, run);
    let (outcome, trace, instr_count) = d.run_once(inst, run);
    assert_eq!(outcome, cold.outcome, "{at}: outcome");
    assert_eq!(instr_count, cold.instr_count, "{at}: count");
    assert_eq!(trace.bytes, cold_trace.bytes, "{at}: trace");
    assert_eq!(trace.stats, cold_trace.stats, "{at}: trace stats");
}

#[test]
fn rebuilds_from_single_sites_translate_exactly() {
    for w in er_workloads::all() {
        let d = w.deployment(Scale::TEST);
        let original = Arc::new(InstrumentedProgram::unmodified(d.program()));
        let start = original.warm_start().expect("every workload has a prefix");
        let (mut translated, sites) = (0, dst_sites(d.program()));
        for &site in &sites {
            let at = format!("{} recording {site:?}", w.name);
            let rebuilt = InstrumentedProgram::rebuild(&original, &[site]);
            let fresh = WarmStart::capture(&rebuilt.program).expect("a rebuild pauses no later");
            let same = fresh.instrs() == start.instrs() && fresh.paused_op() == start.paused_op();
            match start.translate(&rebuilt.program) {
                Some(moved) => {
                    assert!(
                        same,
                        "{at}: a translation, yet the rebuild pauses elsewhere"
                    );
                    assert!(
                        moved == fresh,
                        "{at}: the translation is the rebuild's capture"
                    );
                    translated += 1;
                }
                None => {
                    assert!(!same, "{at}: no translation, yet the rebuild pauses alike");
                    assert!(fresh.instrs() <= start.instrs(), "{at}: pauses earlier");
                }
            }
            // Its runs start from what `warm_start` made, translated or
            // captured.
            assert_run_once_is_cold(&d, &rebuilt, 0, &at);
        }
        // The sites selection picks run after the first input read; some
        // sites run in the prefix.
        assert!(
            0 < translated && translated < sites.len(),
            "{}: {translated} of {} rebuilds translate",
            w.name,
            sites.len()
        );
    }
}

#[test]
fn a_reconstruction_captures_one_prefix() {
    let _mode = er_telemetry::counters::test_mutex()
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mode = er_telemetry::mode();
    er_telemetry::set_mode(er_telemetry::Mode::Counters);
    let mut counts = Vec::new();
    for w in er_workloads::all() {
        let d = w.deployment(Scale::TEST);
        let before = er_telemetry::local_snapshot();
        let report = Reconstructor::new(w.er_config()).reconstruct(&d);
        let delta = er_telemetry::local_snapshot().delta(&before);
        counts.push((
            w.name,
            report.reproduced(),
            report.occurrences,
            delta.get("instrument.rebuilds"),
            delta.get("deploy.warm_captures"),
            delta.get("deploy.warm_reuses"),
        ));
    }
    er_telemetry::set_mode(mode);
    for &(name, reproduced, occurrences, rebuilds, captures, reuses) in &counts {
        assert!(reproduced, "{name}");
        assert_eq!(rebuilds, u64::from(occurrences) - 1, "{name}: rebuilds");
        assert_eq!(captures, 1, "{name}: captures");
        assert_eq!(reuses, rebuilds, "{name}: translated starts");
    }
}
