//! Fleet-scale reconstruction benchmark (PR 3).
//!
//! Runs the Table-1 workloads through `er-fleet` — M mirrored instances,
//! content-addressed trace store, fault-signature triage, and the
//! concurrent reconstruction scheduler — and compares every fleet
//! reconstruction against the serial `Reconstructor::reconstruct` path.
//!
//! * default: all 13 workloads, serial-vs-parallel fleet sweep, writes
//!   `results/BENCH_PR3.json` (ingestion throughput, compression ratio,
//!   dedup ratio, time-to-first-repro).
//! * `--smoke`: 3 workloads at fleet size 3; asserts ≥1 dedup hit and a
//!   bit-identical reproduction per workload, then exits (CI gate).

use er_bench::fleet_spec;
use er_bench::harness::{fmt_duration, print_table, write_json};
use er_core::Reconstructor;
use er_fleet::sim::{Fleet, FleetConfig, FleetReport, Traffic};
use er_workloads::{all, by_name, Scale, Workload};
use serde::Serialize;
use std::time::Duration;

const FLEET_SIZE: usize = 3;
const SMOKE_WORKLOADS: &[&str] = &["Libpng-2004-0597", "PHP-74194", "Memcached-2019-11596"];

/// One (workload, pool mode) measurement.
#[derive(Serialize)]
struct FleetRow {
    workload: String,
    instances: usize,
    /// Worker pool forced single-threaded (the determinism baseline).
    serial_pool: bool,
    groups: usize,
    reproduced: bool,
    /// Fleet test case bit-identical to the serial reconstructor's.
    bit_identical: bool,
    occurrences: u64,
    runs_observed: u64,
    rounds: u64,
    events_ingested: u64,
    /// Decoded events through ingestion per wall second.
    ingest_events_per_sec: f64,
    compression_ratio: f64,
    dedup_hits: u64,
    /// Fraction of store puts resolved by content-address dedup.
    dedup_ratio: f64,
    backpressure: u64,
    truncated: u64,
    time_to_first_repro_ms: Option<f64>,
    wall_ms: f64,
}

fn measure(w: &Workload, serial_pool: bool, serial_inputs: &[(u32, Vec<u8>)]) -> FleetRow {
    let report: FleetReport = Fleet::new(
        fleet_spec(w),
        FleetConfig {
            instances: FLEET_SIZE,
            serial: serial_pool,
            traffic: Traffic::Mirrored,
            ..FleetConfig::default()
        },
    )
    .run();
    let secs = report.wall.as_secs_f64().max(1e-9);
    let fleet_inputs = report
        .groups
        .first()
        .and_then(|g| g.report.outcome.test_case())
        .map(|t| t.inputs.clone())
        .unwrap_or_default();
    FleetRow {
        workload: w.name.to_string(),
        instances: FLEET_SIZE,
        serial_pool,
        groups: report.groups.len(),
        reproduced: report.all_reproduced(),
        bit_identical: fleet_inputs == serial_inputs,
        occurrences: report.groups.iter().map(|g| g.occurrences_seen).sum(),
        runs_observed: report.runs_observed,
        rounds: report.rounds,
        events_ingested: report.store.events,
        ingest_events_per_sec: report.store.events as f64 / secs,
        compression_ratio: report.store.compression_ratio(),
        dedup_hits: report.store.dedup_hits,
        dedup_ratio: report.store.dedup_hits as f64 / report.store.puts.max(1) as f64,
        backpressure: report.ingest.backpressure,
        truncated: report.ingest.truncated,
        time_to_first_repro_ms: report.time_to_first_repro.map(|d| d.as_secs_f64() * 1e3),
        wall_ms: report.wall.as_secs_f64() * 1e3,
    }
}

/// The serial reference: one deployment, one reconstructor.
fn serial_inputs(w: &Workload) -> Vec<(u32, Vec<u8>)> {
    er_telemetry::set_context(&format!("{}/serial-reference", w.name));
    let report = Reconstructor::new(w.er_config()).reconstruct(&w.deployment(Scale::TEST));
    er_telemetry::set_context("");
    assert!(
        report.reproduced(),
        "{}: serial path must reproduce",
        w.name
    );
    report.outcome.test_case().unwrap().inputs.clone()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workloads: Vec<Workload> = if smoke {
        SMOKE_WORKLOADS
            .iter()
            .map(|n| by_name(n).expect("smoke workload exists"))
            .collect()
    } else {
        all()
    };

    let mut rows: Vec<FleetRow> = Vec::new();
    for w in &workloads {
        let reference = serial_inputs(w);
        rows.push(measure(w, false, &reference));
        if !smoke {
            rows.push(measure(w, true, &reference));
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                if r.serial_pool { "serial" } else { "parallel" }.to_string(),
                r.groups.to_string(),
                if r.reproduced { "yes" } else { "NO" }.to_string(),
                if r.bit_identical { "yes" } else { "NO" }.to_string(),
                r.occurrences.to_string(),
                format!("{:.0}k", r.ingest_events_per_sec / 1e3),
                format!("{:.2}x", r.compression_ratio),
                format!("{}/{:.0}%", r.dedup_hits, r.dedup_ratio * 100.0),
                r.time_to_first_repro_ms
                    .map(|ms| fmt_duration(Duration::from_secs_f64(ms / 1e3)))
                    .unwrap_or_else(|| "—".into()),
                fmt_duration(Duration::from_secs_f64(r.wall_ms / 1e3)),
            ]
        })
        .collect();
    print_table(
        &format!("Fleet reconstruction (M={FLEET_SIZE}, mirrored traffic)"),
        &[
            "Workload",
            "Pool",
            "Groups",
            "Repro",
            "Bit-ident",
            "Occurr",
            "Ingest ev/s",
            "Compress",
            "Dedup",
            "First repro",
            "Wall",
        ],
        &table,
    );

    let failures: Vec<&FleetRow> = rows
        .iter()
        .filter(|r| !r.reproduced || !r.bit_identical || (smoke && r.dedup_hits == 0))
        .collect();
    for r in &failures {
        er_telemetry::log!(
            error,
            "{} ({} pool): reproduced={} bit_identical={} dedup_hits={}",
            r.workload,
            if r.serial_pool { "serial" } else { "parallel" },
            r.reproduced,
            r.bit_identical,
            r.dedup_hits
        );
    }

    if !smoke {
        write_json("BENCH_PR3", &rows);
    }
    println!(
        "{} fleet runs over {} workloads{}",
        rows.len(),
        workloads.len(),
        if smoke { " (smoke)" } else { "" }
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
