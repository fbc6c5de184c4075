//! PR-2 regression: the performance machinery must not change results.
//!
//! Two properties, both at test scale over the full Table-1 sweep:
//!
//! 1. The parallel worker pool produces byte-identical rows to `--serial`
//!    (wall-clock fields excluded — they are the only nondeterminism).
//! 2. The incremental solver produces the same reproduction results
//!    (occurrences, reproduced flags, recorded bytes, trace bytes) as the
//!    sequential uncached baseline.
//!
//! A third pins each row's solver work units (array cells plus CNF
//! clauses), so a lowering change that alters the size of the CNF fails
//! here even when every reproduction still succeeds.

use er_bench::rows::{table1_rows, RowOptions, Table1Row};
use er_workloads::Scale;

fn stable(rows: &[Table1Row]) -> Vec<String> {
    rows.iter()
        .map(|r| format!("{:?}", r.deterministic_fields()))
        .collect()
}

#[test]
fn parallel_rows_match_serial_rows() {
    let parallel = table1_rows(RowOptions {
        scale: Scale::TEST,
        serial: false,
        baseline: false,
    });
    let serial = table1_rows(RowOptions {
        scale: Scale::TEST,
        serial: true,
        baseline: false,
    });
    assert_eq!(stable(&parallel), stable(&serial));
    // The pool must not reorder rows either.
    assert_eq!(
        parallel.iter().map(|r| &r.name).collect::<Vec<_>>(),
        serial.iter().map(|r| &r.name).collect::<Vec<_>>()
    );
}

#[test]
fn incremental_mode_matches_uncached_baseline() {
    let optimized = table1_rows(RowOptions {
        scale: Scale::TEST,
        serial: true,
        baseline: false,
    });
    let baseline = table1_rows(RowOptions {
        scale: Scale::TEST,
        serial: true,
        baseline: true,
    });
    assert_eq!(stable(&optimized), stable(&baseline));
    for (o, b) in optimized.iter().zip(&baseline) {
        assert!(o.reproduced == b.reproduced, "{} diverged", o.name);
        assert_eq!(o.occurrences, b.occurrences, "{} occurrences", o.name);
        assert_eq!(
            o.recorded_bytes_final, b.recorded_bytes_final,
            "{} recorded bytes",
            o.name
        );
    }
}

/// `solver_work_units` of each Table-1 row at test scale, in table order.
const WORK_UNITS: [u64; 13] = [
    20948, 47976, 4667, 9714, 4667, 4667, 4667, 20948, 4096, 0, 0, 0, 3072,
];

#[test]
fn solver_work_units_are_pinned() {
    let rows = table1_rows(RowOptions {
        scale: Scale::TEST,
        serial: false,
        baseline: false,
    });
    let work: Vec<(&str, u64)> = rows
        .iter()
        .map(|r| (r.name.as_str(), r.solver_work_units))
        .collect();
    let pinned: Vec<(&str, u64)> = rows
        .iter()
        .zip(WORK_UNITS)
        .map(|(r, w)| (r.name.as_str(), w))
        .collect();
    assert_eq!(rows.len(), WORK_UNITS.len());
    assert_eq!(work, pinned);
}
