//! End-to-end fault injection against the fleet: delivery-side faults
//! (dropped/duplicated crash reports, spill I/O failures, worker panics)
//! must not change the reconstructed answer, and an all-faulty trace
//! stream must end in a typed give-up — never a panic.
//!
//! Lives in its own integration-test binary because chaos arming is
//! process-global; the tests serialize on a local mutex anyway so that
//! per-fault injection budgets are not stolen across tests.

mod common;

use common::spec_for;
use er_fleet::sim::{Fleet, FleetConfig, FleetReport, Traffic};
use er_fleet::StoreConfig;
use er_workloads::{by_name, Workload};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn serial_fleet(w: &Workload, store: StoreConfig) -> FleetReport {
    Fleet::new(
        spec_for(w),
        FleetConfig {
            instances: 2,
            serial: true,
            traffic: Traffic::Mirrored,
            store,
            ..FleetConfig::default()
        },
    )
    .run()
}

/// One group's answer row: group id, reproduced?, test-case inputs.
type GroupAnswer = (u64, bool, Vec<(u32, Vec<u8>)>);

/// The per-group answer that faults must not change.
fn answer(r: &FleetReport) -> Vec<GroupAnswer> {
    let mut rows: Vec<_> = r
        .groups
        .iter()
        .map(|g| {
            (
                g.group,
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

#[test]
fn delivery_faults_do_not_change_the_answer() {
    let _l = chaos_lock();
    for name in ["Libpng-2004-0597", "PHP-74194"] {
        let w = &by_name(name).unwrap();
        let clean = answer(&serial_fleet(w, StoreConfig::default()));
        assert!(
            clean.iter().all(|(_, repro, _)| *repro),
            "{name}: clean run"
        );

        // Ingest drops + duplicates + worker panics, all bounded.
        let plan = er_chaos::ChaosPlan::new(0xfee1)
            .with(
                er_chaos::Fault::IngestDrop,
                er_chaos::FaultPolicy::always(2),
            )
            .with(
                er_chaos::Fault::IngestDuplicate,
                er_chaos::FaultPolicy::always(2),
            )
            .with(
                er_chaos::Fault::WorkerPanic,
                er_chaos::FaultPolicy::always(2),
            );
        let guard = er_chaos::arm(plan);
        let faulted = answer(&serial_fleet(w, StoreConfig::default()));
        let stats = er_chaos::stats().expect("armed");
        let ingest = stats.domain(er_chaos::Domain::Ingest);
        let pool = stats.domain(er_chaos::Domain::Pool);
        drop(guard);

        assert!(ingest.injected >= 1, "{name}: ingest faults must fire");
        assert!(pool.injected >= 1, "{name}: pool faults must fire");
        assert_eq!(
            ingest.injected,
            ingest.handled(),
            "{name}: every ingest fault accounted for"
        );
        assert_eq!(faulted, clean, "{name}: bit-identical answer under faults");
    }
}

#[test]
fn spill_faults_degrade_without_changing_the_answer() {
    let _l = chaos_lock();
    let w = &by_name("Libpng-2004-0597").unwrap();
    let spill = std::env::temp_dir().join(format!("er-chaos-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&spill).unwrap();
    // byte_budget 1: every stored trace goes through the spill path.
    let store = || StoreConfig {
        byte_budget: 1,
        spill_dir: Some(spill.clone()),
        ..StoreConfig::default()
    };
    let clean = answer(&serial_fleet(w, store()));

    let plan = er_chaos::ChaosPlan::new(0xd15c)
        .with(
            er_chaos::Fault::SpillWrite,
            er_chaos::FaultPolicy::always(2),
        )
        .with(er_chaos::Fault::SpillRead, er_chaos::FaultPolicy::always(2));
    let guard = er_chaos::arm(plan);
    let faulted = answer(&serial_fleet(w, store()));
    let stats = er_chaos::stats().expect("armed");
    let dom = stats.domain(er_chaos::Domain::Store);
    drop(guard);
    let _ = std::fs::remove_dir_all(&spill);

    assert!(dom.injected >= 1, "spill faults must fire");
    assert!(dom.handled() >= 1, "spill faults must be handled");
    assert_eq!(faulted, clean, "bit-identical answer under spill faults");
}

#[test]
fn all_faulty_traces_give_up_with_a_typed_reason() {
    let _l = chaos_lock();
    let w = &by_name("Libpng-2004-0597").unwrap();
    // Every shipped trace truncated: no occurrence survives, so the group
    // must close with a typed give-up — and nothing may panic.
    let plan = er_chaos::ChaosPlan::new(0xbad5).with(
        er_chaos::Fault::TraceTruncate,
        er_chaos::FaultPolicy::always(u64::MAX),
    );
    let guard = er_chaos::arm(plan);
    let report = serial_fleet(w, StoreConfig::default());
    let stats = er_chaos::stats().expect("armed");
    let injected = stats.domain(er_chaos::Domain::Trace).injected;
    drop(guard);

    assert!(injected >= 1, "trace faults must fire");
    for g in &report.groups {
        assert!(
            !g.report.reproduced(),
            "{}: cannot reproduce from all-truncated traces",
            g.label
        );
        let er_core::reconstruct::Outcome::GaveUp(reason) = &g.report.outcome else {
            panic!("{}: expected a typed give-up", g.label);
        };
        // The reason is typed; exactly which one depends on where the
        // truncation bit: decode error, divergence, or budget exhaustion.
        let _ = reason;
    }
}
