//! Regression test: telemetry journal vs `IterationStats`.
//!
//! Reconstructs `Libpng-2004-0597` with `ErConfig::default()` under
//! `ER_TELEMETRY=full` and checks that the journal's per-iteration
//! `shepherd.symbex` span durations sum (within tolerance) to the
//! report's `symbex_wall` totals. If the telemetry spans and the stats
//! fields ever drift apart — e.g. a span moved so it no longer brackets
//! the timed region — this catches it.
//!
//! Lives in its own integration-test binary so the `ER_TELEMETRY` /
//! `ER_TELEMETRY_DIR` environment is set before the process's first
//! telemetry use.

use er_core::{ErConfig, Reconstructor};
use er_workloads::{by_name, Scale};

#[test]
fn journal_phase_spans_match_reported_symbex_wall() {
    let dir = std::env::temp_dir().join(format!("er-journal-regr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("ER_TELEMETRY", "full");
    std::env::set_var("ER_TELEMETRY_DIR", &dir);

    let w = by_name("Libpng-2004-0597").expect("registered workload");
    let deployment = w.deployment(Scale::TEST);
    let report = Reconstructor::new(ErConfig::default()).reconstruct(&deployment);
    assert!(
        !report.iterations.is_empty(),
        "reconstruction produced no iterations"
    );
    er_telemetry::journal::flush();

    let events = er_telemetry::journal::read_journal_dir(&dir).expect("journal readable");
    std::fs::remove_dir_all(&dir).ok();

    let symbex_spans: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "span" && e.name == "shepherd.symbex")
        .map(|e| e.dur_ns)
        .collect();
    assert_eq!(
        symbex_spans.len(),
        report.iterations.len(),
        "one shepherd.symbex span per iteration"
    );

    let span_total: u64 = symbex_spans.iter().sum();
    let wall_total: u64 = report
        .iterations
        .iter()
        .map(|i| u64::try_from(i.symbex_wall.as_nanos()).unwrap())
        .sum();
    assert_eq!(
        wall_total,
        u64::try_from(report.total_symbex().as_nanos()).unwrap(),
        "report.total_symbex() is the sum of per-iteration symbex_wall"
    );

    // The span brackets the timed region, so it can only be slightly
    // longer (guard setup/teardown); allow 20% + 5ms of slack.
    assert!(
        span_total >= wall_total,
        "span total {span_total}ns shorter than reported wall {wall_total}ns"
    );
    let slack = wall_total / 5 + 5_000_000;
    assert!(
        span_total <= wall_total + slack,
        "span total {span_total}ns exceeds wall {wall_total}ns + {slack}ns slack; \
         the shepherd.symbex span no longer brackets the symbex timer"
    );

    // Effort counters recorded by the spans must match IterationStats
    // exactly (both read the same per-thread counter table).
    let span_steps: u64 = events
        .iter()
        .filter(|e| e.name == "shepherd.symbex")
        .flat_map(|e| e.counters.iter())
        .filter(|(n, _)| n == "symex.steps")
        .map(|(_, v)| *v)
        .sum();
    let stat_steps: u64 = report.iterations.iter().map(|i| i.symbex_steps).sum();
    assert_eq!(
        span_steps, stat_steps,
        "symex.steps drifted between journal and stats"
    );
}
