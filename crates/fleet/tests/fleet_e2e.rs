//! End-to-end fleet tests against the Table-1 workloads:
//!
//! * the fleet path reconstructs the same failure as the serial
//!   `Reconstructor::reconstruct` loop, with a **bit-identical test
//!   case** (mirrored traffic, any fleet size);
//! * parallel and `--serial` fleet runs are deterministic twins (same
//!   groups, same reconstruction results);
//! * mirrored replicas produce cross-occurrence dedup hits;
//! * backpressure and partial rollout degrade gracefully.

mod common;

use common::spec_for;
use er_core::Reconstructor;
use er_fleet::ingest::IngestConfig;
use er_fleet::sched::SchedulerConfig;
use er_fleet::sim::{Fleet, FleetConfig, FleetReport, Traffic};
use er_workloads::{by_name, Scale, Workload};
use std::sync::Arc;

fn run_fleet(w: &Workload, config: FleetConfig) -> FleetReport {
    Fleet::new(spec_for(w), config).run()
}

/// One group's digest row: id, sightings, session occurrences,
/// reproduced flag, and the test-case inputs.
type GroupDigest = (u64, u64, u32, bool, Vec<(u32, Vec<u8>)>);

/// Deterministic per-group digest: everything that must match between two
/// equivalent fleet runs.
fn digest(r: &FleetReport) -> Vec<GroupDigest> {
    let mut rows: Vec<_> = r
        .groups
        .iter()
        .map(|g| {
            (
                g.group,
                g.occurrences_seen,
                g.report.occurrences,
                g.report.reproduced(),
                g.report
                    .outcome
                    .test_case()
                    .map(|t| t.inputs.clone())
                    .unwrap_or_default(),
            )
        })
        .collect();
    rows.sort();
    rows
}

fn mirrored(instances: usize, serial: bool) -> FleetConfig {
    FleetConfig {
        instances,
        serial,
        traffic: Traffic::Mirrored,
        ..FleetConfig::default()
    }
}

#[test]
fn fleet_matches_serial_reconstruction_bit_for_bit() {
    // One single-occurrence workload, one iterative (stall + rollout)
    // workload, one multithreaded workload — the three regimes.
    for name in ["Libpng-2004-0597", "PHP-74194", "Memcached-2019-11596"] {
        let w = &by_name(name).unwrap();
        let serial_report =
            Reconstructor::new(w.er_config()).reconstruct(&w.deployment(Scale::TEST));
        assert!(serial_report.reproduced(), "{name}: serial path must work");
        let serial_tc = serial_report.outcome.test_case().unwrap();

        let fleet = run_fleet(w, mirrored(3, false));
        assert_eq!(fleet.groups.len(), 1, "{name}: one failure group");
        let g = &fleet.groups[0];
        assert!(
            g.report.reproduced(),
            "{name}: fleet outcome {:?}",
            g.report.outcome
        );
        assert_eq!(g.report.occurrences, serial_report.occurrences, "{name}");
        let fleet_tc = g.report.outcome.test_case().unwrap();
        assert_eq!(fleet_tc.inputs, serial_tc.inputs, "{name}: bit-identical");
        assert_eq!(fleet_tc.sched, serial_tc.sched, "{name}: same schedule");
        assert!(fleet_tc.verify(&w.program(Scale::TEST)).reproduced());
    }
}

#[test]
fn parallel_and_serial_fleets_are_deterministic_twins() {
    for name in ["Libpng-2004-0597", "PHP-74194"] {
        let w = &by_name(name).unwrap();
        let par = run_fleet(w, mirrored(3, false));
        let ser = run_fleet(w, mirrored(3, true));
        assert_eq!(digest(&par), digest(&ser), "{name}");
        assert_eq!(par.store.dedup_hits, ser.store.dedup_hits, "{name}");
        assert_eq!(par.runs_observed, ser.runs_observed, "{name}");
    }
}

#[test]
fn mirrored_replicas_dedup_and_compress() {
    let w = &by_name("PHP-74194").unwrap();
    let fleet = run_fleet(w, mirrored(4, false));
    assert!(fleet.all_reproduced());
    // Every occurrence ships from 4 replicas; 3 of each are redundant.
    assert!(
        fleet.store.dedup_hits >= 3,
        "dedup hits: {}",
        fleet.store.dedup_hits
    );
    assert!(
        fleet.store.compression_ratio() > 1.5,
        "compression ratio: {:.2}",
        fleet.store.compression_ratio()
    );
}

#[test]
fn fleet_size_one_still_works() {
    let w = &by_name("Bash-108885").unwrap();
    let fleet = run_fleet(w, mirrored(1, true));
    assert!(fleet.all_reproduced());
    assert_eq!(fleet.store.dedup_hits, 0);
}

#[test]
fn backpressure_retries_instead_of_dropping() {
    let w = &by_name("PHP-74194").unwrap();
    let fleet = run_fleet(
        w,
        FleetConfig {
            ingest: IngestConfig { queue_cap: 1 },
            ..mirrored(4, false)
        },
    );
    assert!(fleet.all_reproduced(), "reproduction survives a tiny queue");
    assert!(
        fleet.ingest.backpressure > 0,
        "a 4-wide fleet against a 1-deep queue must push back"
    );
}

#[test]
fn partial_rollout_reconstructs_with_stale_drops() {
    // Only 1 of 4 instances gets each re-instrumented binary; the other
    // replicas keep shipping stale-version traces that must be counted
    // and dropped, not consumed.
    let w = &by_name("PHP-74194").unwrap();
    let serial_report = Reconstructor::new(w.er_config()).reconstruct(&w.deployment(Scale::TEST));
    let fleet = run_fleet(
        w,
        FleetConfig {
            sched: SchedulerConfig {
                rollout: 0.25,
                ..SchedulerConfig::default()
            },
            ..mirrored(4, false)
        },
    );
    assert!(fleet.all_reproduced());
    let tc = fleet.groups[0].report.outcome.test_case().unwrap();
    assert_eq!(
        tc.inputs,
        serial_report.outcome.test_case().unwrap().inputs,
        "rollout fraction must not change the reconstruction"
    );
}

#[test]
fn partitioned_traffic_reconstructs_per_group() {
    let w = &by_name("Libpng-2004-0597").unwrap();
    let fleet = run_fleet(
        w,
        FleetConfig {
            instances: 3,
            serial: false,
            traffic: Traffic::Partitioned,
            ..FleetConfig::default()
        },
    );
    assert_eq!(fleet.groups.len(), 1);
    assert!(fleet.groups[0].report.reproduced());
}

#[test]
fn healthy_program_reports_no_groups() {
    let w = &by_name("Libpng-2004-0597").unwrap();
    let mut spec = spec_for(w);
    // Replace the traffic with never-failing inputs (run 2 is healthy:
    // failures need run % 4 == 3).
    let input = w.input_gen;
    spec.input_gen = Arc::new(move |_| input(2));
    spec.reoccurrence.predictor = None;
    spec.reoccurrence.fast_forward = false;
    spec.er.max_runs_per_occurrence = 200;
    let report = Fleet::new(
        spec,
        FleetConfig {
            instances: 2,
            batch_runs: 50,
            ..FleetConfig::default()
        },
    )
    .run();
    assert!(report.groups.is_empty());
    assert!(!report.all_reproduced());
}
