//! Chaos sweep (PR 4): the Table-1 workloads under seeded fault injection.
//!
//! For every workload and every [`er_chaos::Domain`], arms a bounded,
//! deterministic [`er_chaos::ChaosPlan`] and runs a full reconstruction —
//! the serial `Reconstructor` for the Trace and Solver domains (faults hit
//! the shipped trace and the solver boundary directly), the serial-pool
//! fleet simulator for the Ingest, Store, and Pool domains (faults hit the
//! queue, the spill directory, and the worker closures). Asserts, per leg:
//!
//! * nothing panics — every injected fault is recovered, degraded, or a
//!   typed error (`chaos.*` counters account for each injection);
//! * the Ingest/Store/Pool legs reproduce **bit-identically** to a clean
//!   serial reference — delivery, retention, and worker faults must not
//!   change the answer;
//! * the Trace/Solver legs still reproduce — a tampered occurrence or an
//!   injected stall costs retries, not the investigation.
//!
//! A final *aggressive* leg truncates every shipped trace and demands a
//! typed give-up: when no occurrence survives, ER must report
//! truncated/undecodable, never crash.
//!
//! * default: all 13 workloads × 5 domains, writes `results/BENCH_CHAOS.json`.
//! * `--smoke`: 3 workloads × 5 domains (CI gate).

use er_bench::fleet_spec;
use er_bench::harness::{fmt_duration, print_table, write_json};
use er_chaos::{ChaosPlan, Domain, Fault, FaultPolicy};
use er_core::Reconstructor;
use er_fleet::sim::{Fleet, FleetConfig, FleetSpec, Traffic};
use er_fleet::StoreConfig;
use er_workloads::{all, by_name, Scale, Workload};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const FLEET_SIZE: usize = 2;
const SMOKE_WORKLOADS: &[&str] = &["Libpng-2004-0597", "PHP-74194", "Memcached-2019-11596"];
const SEED: u64 = 0x5eed_c405;

/// One leg's outcome: reproduced?, test-case inputs, give-up reason.
type LegOutcome = (bool, Vec<(u32, Vec<u8>)>, Option<String>);

/// The bounded fault plan for one domain leg. `always(n)` policies make
/// the injections deterministic: the first `n` eligible calls fault, the
/// rest run clean, independent of timing.
fn plan_for(domain: Domain) -> ChaosPlan {
    let p = ChaosPlan::new(SEED);
    match domain {
        Domain::Trace => p
            .with(Fault::TraceCorrupt, FaultPolicy::always(1))
            .with(Fault::TraceTruncate, FaultPolicy::always(1))
            .with(Fault::TraceReorder, FaultPolicy::always(1)),
        Domain::Ingest => p
            .with(Fault::IngestDrop, FaultPolicy::always(2))
            .with(Fault::IngestDuplicate, FaultPolicy::always(2)),
        Domain::Store => p
            .with(Fault::SpillWrite, FaultPolicy::always(2))
            .with(Fault::SpillRead, FaultPolicy::always(2)),
        Domain::Pool => p.with(Fault::WorkerPanic, FaultPolicy::always(2)),
        Domain::Solver => p.with(Fault::SolverStall, FaultPolicy::always(2)),
    }
}

fn chaos_fleet(w: &Workload, store: StoreConfig) -> (FleetSpec, FleetConfig) {
    let spec = fleet_spec(w);
    let config = FleetConfig {
        instances: FLEET_SIZE,
        serial: true, // deterministic baseline: faults, not thread timing
        traffic: Traffic::Mirrored,
        store,
        ..FleetConfig::default()
    };
    (spec, config)
}

#[derive(Serialize)]
struct ChaosRow {
    workload: String,
    domain: String,
    injected: u64,
    recovered: u64,
    degraded: u64,
    typed_errors: u64,
    reproduced: bool,
    /// Test case bit-identical to the clean serial reference (asserted for
    /// the Ingest/Store/Pool legs; informational for Trace/Solver).
    bit_identical: bool,
    give_up: Option<String>,
    panicked: bool,
    wall_ms: f64,
}

/// Runs `f` under the domain's armed plan, harvesting chaos stats before
/// disarming. A panic anywhere in the pipeline is the one thing this sweep
/// exists to rule out — caught and reported, never silently fatal.
fn run_leg(
    w: &Workload,
    domain: Domain,
    reference: &[(u32, Vec<u8>)],
    f: impl FnOnce() -> LegOutcome,
) -> ChaosRow {
    er_telemetry::set_context(&format!("{}/chaos-{}", w.name, domain.name()));
    let guard = er_chaos::arm(plan_for(domain));
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(f));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = er_chaos::stats().expect("chaos armed");
    let dom = stats.domain(domain);
    drop(guard);
    er_telemetry::set_context("");
    let (panicked, reproduced, inputs, give_up) = match outcome {
        Ok((reproduced, inputs, give_up)) => (false, reproduced, inputs, give_up),
        Err(_) => (true, false, Vec::new(), Some("PANIC".to_string())),
    };
    ChaosRow {
        workload: w.name.to_string(),
        domain: domain.name().to_string(),
        injected: dom.injected,
        recovered: dom.recovered,
        degraded: dom.degraded,
        typed_errors: dom.typed_errors,
        reproduced,
        bit_identical: reproduced && inputs == reference,
        give_up,
        panicked,
        wall_ms,
    }
}

/// Serial-path leg (Trace / Solver): one deployment, one reconstructor,
/// with occurrence headroom for the retries the faults will cost.
fn serial_leg(w: &Workload) -> LegOutcome {
    let mut er = w.er_config();
    er.max_occurrences += 4;
    let report = Reconstructor::new(er).reconstruct(&w.deployment(Scale::TEST));
    report_outcome(&report)
}

/// Fleet-path leg (Ingest / Store / Pool): serial-pool fleet, first group's
/// outcome.
fn fleet_leg(w: &Workload, store: StoreConfig) -> LegOutcome {
    let (spec, config) = chaos_fleet(w, store);
    let report = Fleet::new(spec, config).run();
    match report.groups.first() {
        Some(g) => report_outcome(&g.report),
        None => (false, Vec::new(), Some("no failure group formed".into())),
    }
}

fn report_outcome(report: &er_core::reconstruct::ReconstructionReport) -> LegOutcome {
    match &report.outcome {
        er_core::reconstruct::Outcome::Reproduced(tc) => (true, tc.inputs.clone(), None),
        er_core::reconstruct::Outcome::GaveUp(reason) => {
            (false, Vec::new(), Some(format!("{reason:?}")))
        }
    }
}

/// Clean serial reference inputs (chaos disarmed).
fn reference_inputs(w: &Workload) -> Vec<(u32, Vec<u8>)> {
    er_telemetry::set_context(&format!("{}/clean-reference", w.name));
    let report = Reconstructor::new(w.er_config()).reconstruct(&w.deployment(Scale::TEST));
    er_telemetry::set_context("");
    assert!(
        report.reproduced(),
        "{}: clean serial path must reproduce",
        w.name
    );
    report.outcome.test_case().unwrap().inputs.clone()
}

fn spill_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("er-chaos-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create spill dir");
    dir
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
    let spill = spill_dir();

    let mut rows: Vec<ChaosRow> = Vec::new();
    for w in &workloads {
        let reference = reference_inputs(w);
        for domain in Domain::ALL {
            let row = match domain {
                Domain::Trace | Domain::Solver => run_leg(w, domain, &reference, || serial_leg(w)),
                Domain::Ingest | Domain::Pool => run_leg(w, domain, &reference, || {
                    fleet_leg(w, StoreConfig::default())
                }),
                Domain::Store => run_leg(w, domain, &reference, || {
                    // A one-byte budget forces every trace through the
                    // spill path, so SpillWrite/SpillRead actually fire.
                    fleet_leg(
                        w,
                        StoreConfig {
                            byte_budget: 1,
                            spill_dir: Some(spill.clone()),
                            ..StoreConfig::default()
                        },
                    )
                }),
            };
            rows.push(row);
        }
    }

    // Aggressive leg: EVERY shipped trace truncated. No occurrence
    // survives, so reconstruction must end in a typed give-up — the
    // "reports truncated/undecodable, never panics" half of the contract.
    let w = &workloads[0];
    er_telemetry::set_context(&format!("{}/chaos-trace-aggressive", w.name));
    let guard = er_chaos::arm(
        ChaosPlan::new(SEED).with(Fault::TraceTruncate, FaultPolicy::always(u64::MAX)),
    );
    let start = Instant::now();
    let aggressive = catch_unwind(AssertUnwindSafe(|| serial_leg(w)));
    let aggressive_wall = start.elapsed().as_secs_f64() * 1e3;
    let aggressive_injected = er_chaos::stats()
        .expect("armed")
        .domain(Domain::Trace)
        .injected;
    drop(guard);
    er_telemetry::set_context("");
    let (agg_panicked, agg_reproduced, agg_reason) = match &aggressive {
        Ok((reproduced, _, reason)) => (false, *reproduced, reason.clone()),
        Err(_) => (true, false, Some("PANIC".to_string())),
    };
    rows.push(ChaosRow {
        workload: w.name.to_string(),
        domain: "trace(all-faulty)".to_string(),
        injected: aggressive_injected,
        recovered: 0,
        degraded: 0,
        typed_errors: 0,
        reproduced: agg_reproduced,
        bit_identical: false,
        give_up: agg_reason.clone(),
        panicked: agg_panicked,
        wall_ms: aggressive_wall,
    });

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.domain.clone(),
                r.injected.to_string(),
                format!("{}/{}/{}", r.recovered, r.degraded, r.typed_errors),
                if r.panicked {
                    "PANIC".into()
                } else if r.reproduced {
                    "yes".into()
                } else {
                    "no".into()
                },
                if r.bit_identical { "yes" } else { "—" }.to_string(),
                r.give_up.clone().unwrap_or_else(|| "—".into()),
                fmt_duration(Duration::from_secs_f64(r.wall_ms / 1e3)),
            ]
        })
        .collect();
    print_table(
        &format!("Chaos sweep (seed {SEED:#x}, serial pool, M={FLEET_SIZE})"),
        &[
            "Workload",
            "Domain",
            "Injected",
            "Rec/Deg/Typed",
            "Repro",
            "Bit-ident",
            "Give-up",
            "Wall",
        ],
        &table,
    );

    let mut failures: Vec<String> = Vec::new();
    for r in &rows {
        let leg = format!("{} [{}]", r.workload, r.domain);
        if r.panicked {
            failures.push(format!("{leg}: PANICKED"));
            continue;
        }
        if r.injected == 0 {
            failures.push(format!(
                "{leg}: no fault injected (leg did not exercise domain)"
            ));
        }
        match r.domain.as_str() {
            "ingest" | "store" | "pool" => {
                if r.recovered + r.degraded + r.typed_errors == 0 {
                    failures.push(format!("{leg}: injections unaccounted for"));
                }
                if !r.reproduced || !r.bit_identical {
                    failures.push(format!(
                        "{leg}: must reproduce bit-identically (reproduced={}, bit_identical={})",
                        r.reproduced, r.bit_identical
                    ));
                }
            }
            "trace" | "solver" => {
                if !r.reproduced {
                    failures.push(format!(
                        "{leg}: must still reproduce (gave up: {:?})",
                        r.give_up
                    ));
                }
            }
            _ => {
                // Aggressive leg: a typed give-up, never a reproduction
                // built on a fabricated trace, never a panic.
                if r.reproduced {
                    failures.push(format!("{leg}: reproduced despite all-faulty traces"));
                }
                if r.give_up.is_none() {
                    failures.push(format!("{leg}: no typed give-up reason"));
                }
            }
        }
    }

    if !smoke {
        write_json("BENCH_CHAOS", &rows);
    }
    let _ = std::fs::remove_dir_all(&spill);
    println!(
        "{} chaos legs over {} workloads{}",
        rows.len(),
        workloads.len(),
        if smoke { " (smoke)" } else { "" }
    );
    for f in &failures {
        er_telemetry::log!(error, "{f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
