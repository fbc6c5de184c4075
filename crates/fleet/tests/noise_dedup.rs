//! Scheduling noise stays out of the trace store. A single-threaded run
//! resumes its one thread at every quantum boundary, so two schedule seeds
//! give the same failing run different PT bytes (the PGE and TSC packets
//! fall elsewhere) but the same decoded events. The store keeps the
//! events, so ingesting both traces into one group stores one copy and
//! counts the second as a dedup hit.

use er_core::deploy::FailureOccurrence;
use er_core::instrument::InstrumentedProgram;
use er_fleet::{CrashReport, IngestConfig, Ingestor, StoreConfig, TraceStore, Triage};
use er_minilang::interp::{RunOutcome, SchedConfig};
use er_workloads::Scale;

#[test]
fn one_failing_run_under_two_schedules_is_stored_once() {
    for w in er_workloads::all().iter().filter(|w| !w.multithreaded) {
        let d = w.deployment(Scale::TEST);
        let inst = InstrumentedProgram::unmodified(d.program());
        let occ = d
            .run_until_failure(&inst, None, 0, w.er_config().max_runs_per_occurrence)
            .unwrap_or_else(|| panic!("{}: no failing run", w.name));
        let sched = d.sched_for(occ.run_index);
        let mut ingestor = Ingestor::new(IngestConfig::default());
        let mut bytes = Vec::new();
        for (instance, seed) in [sched.seed, sched.seed ^ 0x5eed].into_iter().enumerate() {
            let d = w
                .deployment(Scale::TEST)
                .with_sched(move |_| SchedConfig { seed, ..sched });
            let (outcome, trace, instr_count) = d.run_once(&inst, occ.run_index);
            let RunOutcome::Failure(failure) = outcome else {
                panic!("{}: seed {seed} does not fail", w.name);
            };
            assert!(
                failure.same_failure(&occ.failure),
                "{}: seed {seed}",
                w.name
            );
            bytes.push(trace.bytes.clone());
            assert!(ingestor.offer(CrashReport {
                instance,
                for_group: None,
                version: 0,
                occ: FailureOccurrence {
                    failure,
                    trace,
                    run_index: occ.run_index,
                    sched: d.sched_for(occ.run_index),
                    instr_count,
                },
            }));
        }
        assert_ne!(bytes[0], bytes[1], "{}: PT bytes", w.name);
        let mut store = TraceStore::new(StoreConfig::default());
        let pending = ingestor.drain(&mut Triage::new(), &mut store);
        assert_eq!(pending.len(), 2, "{}", w.name);
        assert_eq!(pending[0].group, pending[1].group, "{}: one group", w.name);
        assert!(pending[0].trace.is_ok(), "{}: trace decodes", w.name);
        assert_eq!(
            pending[0].trace, pending[1].trace,
            "{}: one stored trace",
            w.name
        );
        let stats = store.stats();
        assert_eq!((stats.puts, stats.dedup_hits), (2, 1), "{}", w.name);
    }
}
