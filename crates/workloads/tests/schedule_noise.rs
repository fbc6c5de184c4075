//! Scheduling noise stays out of decoded traces. A single-threaded run
//! resumes its one thread at every quantum boundary, so two schedule seeds
//! give the same run different PT bytes (the PGE and TSC packets fall
//! elsewhere), but the same decoded events: shepherding and the warm
//! start's prefix compare see only what the program did.

use er_core::instrument::InstrumentedProgram;
use er_minilang::interp::{RunOutcome, SchedConfig};
use er_workloads::Scale;

#[test]
fn single_threaded_failing_runs_decode_alike_under_two_schedules() {
    for w in er_workloads::all().iter().filter(|w| !w.multithreaded) {
        let d = w.deployment(Scale::TEST);
        let inst = InstrumentedProgram::unmodified(d.program());
        let occ = d
            .run_until_failure(&inst, None, 0, w.er_config().max_runs_per_occurrence)
            .unwrap_or_else(|| panic!("{}: no failing run", w.name));
        let sched = d.sched_for(occ.run_index);
        let traces: Vec<_> = [sched.seed, sched.seed ^ 0x5eed]
            .into_iter()
            .map(|seed| {
                let d = w
                    .deployment(Scale::TEST)
                    .with_sched(move |_| SchedConfig { seed, ..sched });
                let (outcome, trace, _) = d.run_once(&inst, occ.run_index);
                let RunOutcome::Failure(f) = outcome else {
                    panic!("{}: seed {seed} does not fail", w.name);
                };
                assert!(f.same_failure(&occ.failure), "{}: seed {seed}", w.name);
                trace
            })
            .collect();
        assert_ne!(traces[0].bytes, traces[1].bytes, "{}: PT bytes", w.name);
        let events: Vec<_> = traces
            .iter()
            .map(|t| t.decode().expect("trace decodes").events)
            .collect();
        assert!(
            events[0] == events[1],
            "{}: decoded events differ between schedules",
            w.name
        );
    }
}
