//! Shepherded runs start from each binary's warm start, on every Table-1
//! program.
//!
//! A session shepherds each occurrence from its binary's symbolic warm
//! start (`InstrumentedProgram::symbolic_warm_start`), the shepherd's state
//! at the production warm start's pause. For one serial reconstruction of
//! each workload at test scale, every occurrence must start at or past the
//! warm prefix's events of the binary it ran, no trace may fall back to
//! the entry, and the verified test case must be `Reconstructor`'s.

use er_core::reconstruct::{GiveUpReason, ReconstructionSession, Reconstructor, SessionStep};
use er_workloads::Scale;

#[test]
fn every_occurrence_starts_past_the_warm_prefix() {
    let _mode = er_telemetry::counters::test_mutex()
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mode = er_telemetry::mode();
    er_telemetry::set_mode(er_telemetry::Mode::Counters);
    for w in er_workloads::all() {
        let d = w.deployment(Scale::TEST);
        let config = w.er_config();
        let before = er_telemetry::local_snapshot();
        let mut session = ReconstructionSession::new(config, d.program().clone());
        let mut warm_cursors = Vec::new();
        let report = loop {
            if !session.wants_more() {
                break session.give_up(GiveUpReason::OccurrenceLimit);
            }
            let Some(occ) = d.run_until_failure(
                session.binary(),
                session.target(),
                session.next_run(),
                config.max_runs_per_occurrence,
            ) else {
                break session.give_up(GiveUpReason::NoFailureObserved);
            };
            let warm = session.binary().warm_start().map_or(0, |w| w.events());
            assert!(warm > 0, "{}: the binary has a warm prefix", w.name);
            warm_cursors.push(warm);
            if let SessionStep::Done(report) = session.consume(occ) {
                break report;
            }
        };
        let delta = er_telemetry::local_snapshot().delta(&before);
        assert!(report.reproduced(), "{}: {:?}", w.name, report.outcome);
        assert_eq!(report.iterations.len(), warm_cursors.len(), "{}", w.name);
        for (it, &warm) in report.iterations.iter().zip(&warm_cursors) {
            assert!(
                it.start_cursor >= warm,
                "{} occurrence {}: starts at {} before the warm prefix's {warm} events",
                w.name,
                it.occurrence,
                it.start_cursor
            );
        }
        assert_eq!(delta.get("symex.warm_fallbacks"), 0, "{}", w.name);
        assert_eq!(
            delta.get("symex.warm_starts"),
            u64::from(report.occurrences),
            "{}: every occurrence starts warm",
            w.name
        );
        let reference = Reconstructor::new(config).reconstruct(&d);
        assert_eq!(report.occurrences, reference.occurrences, "{}", w.name);
        assert_eq!(
            report.outcome.test_case().map(|tc| &tc.inputs),
            reference.outcome.test_case().map(|tc| &tc.inputs),
            "{}",
            w.name
        );
    }
    er_telemetry::set_mode(mode);
}
