//! Replays the telemetry journal into a per-phase time/effort table
//! (the §5.3 offline-overhead breakdown).
//!
//! Run a bench binary with `ER_TELEMETRY=full` first, e.g.
//! `ER_TELEMETRY=full cargo run -p er-bench --bin table1 -- --test`,
//! then `cargo run -p er-bench --bin obs_report`. Reads every
//! `er-journal-*.jsonl` under `ER_TELEMETRY_DIR` (default `telemetry/`).
//!
//! Usage: `obs_report [journal-dir-or-file]`

use er_bench::harness::{fmt_duration, print_table, write_json};
use er_telemetry::Event;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Pipeline phases in reporting order, with the span that accounts for
/// each. These mirror the per-iteration spans opened by
/// `er-core::reconstruct` and `er-core::shepherd`.
const PHASES: &[(&str, &str)] = &[
    ("decode", "shepherd.decode"),
    ("symbex", "shepherd.symbex"),
    ("solve", "shepherd.solve"),
    ("select", "phase.select"),
    ("instrument", "phase.instrument"),
    ("deploy", "phase.deploy"),
];

/// Effort counters summarized alongside the time breakdown.
const EFFORT: &[&str] = &[
    "symex.steps",
    "sat.conflicts",
    "sat.propagations",
    "pt.packets_encoded",
    "ring.overwrites",
    "select.graph_nodes",
];

/// Dynamic instructions of traced production runs; with the deploy phase
/// time it gives the interpreter's cost per instruction.
const DEPLOY_INSTRS: &str = "deploy.instrs";

/// Solver counters summarized per workload, with their column labels:
/// query volume, stalls, prefix-cache reuse, clauses assumption probes
/// reused from the persistent solver, and clauses the final input solve
/// took over from the shepherded run's engine.
const SOLVER: &[(&str, &str)] = &[
    ("Queries", "solver.queries"),
    ("Stalls", "solver.stalls"),
    ("Cache Hits", "solver.cache_hits"),
    ("Cache Misses", "solver.cache_misses"),
    ("Probe Reused", "solver.clauses_reused"),
    ("Handoff Reused", "solver.handoff_reused_clauses"),
];

/// Fleet counters rendered in the per-fleet-run table, in column order.
/// All `fleet.*` counters are bumped on the simulator's driver thread,
/// so the enclosing `fleet.run` span's counter delta accounts for each
/// exactly once per fleet run.
const FLEET: &[(&str, &str)] = &[
    ("Inst", "fleet.instances"),
    ("Rounds", "fleet.rounds"),
    ("Occurr", "fleet.occurrences"),
    ("Ingested", "fleet.ingest.accepted"),
    ("Backpr", "fleet.ingest.backpressure"),
    ("Puts", "fleet.store.puts"),
    ("Dedup", "fleet.store.dedup_hits"),
    ("Evict", "fleet.store.evictions"),
    ("Groups", "fleet.triage.groups"),
    ("Consumed", "fleet.sched.consumed"),
    ("Stale", "fleet.sched.stale_dropped"),
    ("Rollouts", "fleet.sched.rollouts"),
];

#[derive(Default, Serialize)]
struct WorkloadReport {
    name: String,
    iterations: u64,
    phase_ns: BTreeMap<String, u64>,
    /// Solver time spent inside shepherded execution (address
    /// resolution), as opposed to the final input solve.
    symbex_query_ns: u64,
    effort: BTreeMap<String, u64>,
}

/// `ns / count`, or `-` when nothing was counted.
fn ns_per(ns: u64, count: u64) -> String {
    if count == 0 {
        "-".to_string()
    } else {
        format!("{:.1}", ns as f64 / count as f64)
    }
}

#[derive(Default, Serialize)]
struct FleetRunReport {
    name: String,
    runs: u64,
    wall_ns: u64,
    counters: BTreeMap<String, u64>,
}

fn main() {
    let arg = std::env::args().nth(1);
    let source = arg.map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(std::env::var("ER_TELEMETRY_DIR").unwrap_or_else(|_| "telemetry".into()))
    });

    let events: Vec<Event> = if source.is_file() {
        er_telemetry::read_journal(&source)
    } else {
        er_telemetry::journal::read_journal_dir(&source)
    }
    .unwrap_or_else(|e| {
        er_telemetry::log!(error, "{e}");
        er_telemetry::log!(
            error,
            "hint: generate a journal with `ER_TELEMETRY=full cargo run -p er-bench --bin table1 -- --test`"
        );
        std::process::exit(1);
    });

    if events.is_empty() {
        er_telemetry::log!(error, "no span events found under {source:?}");
        std::process::exit(1);
    }

    // Group span durations by (workload ctx, phase) and sum effort
    // counters attributed to each workload's spans.
    let mut by_workload: BTreeMap<String, WorkloadReport> = BTreeMap::new();
    for ev in &events {
        if ev.kind != "span" {
            continue;
        }
        let ctx = if ev.ctx.is_empty() {
            "(untagged)".to_string()
        } else {
            ev.ctx.clone()
        };
        let rep = by_workload
            .entry(ctx.clone())
            .or_insert_with(|| WorkloadReport {
                name: ctx,
                ..WorkloadReport::default()
            });
        if let Some((label, _)) = PHASES.iter().find(|(_, span)| *span == ev.name) {
            *rep.phase_ns.entry((*label).to_string()).or_default() += ev.dur_ns;
        }
        if ev.name == "solver.query" && ev.parent.as_deref() == Some("shepherd.symbex") {
            rep.symbex_query_ns += ev.dur_ns;
        }
        // A span's counter deltas include those of its children, so sum
        // effort only over the sibling per-iteration spans — each unit of
        // work is counted exactly once.
        if ev.name == "reconstruct.iteration" {
            rep.iterations += 1;
            for (cname, v) in &ev.counters {
                if EFFORT.contains(&cname.as_str())
                    || SOLVER.iter().any(|(_, c)| c == cname)
                    || cname == DEPLOY_INSTRS
                {
                    *rep.effort.entry(cname.clone()).or_default() += v;
                }
            }
        }
    }

    let reports: Vec<&WorkloadReport> = by_workload.values().collect();
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let total: u64 = r.phase_ns.values().sum();
            let mut row = vec![r.name.clone(), r.iterations.to_string()];
            for (label, _) in PHASES {
                let ns = r.phase_ns.get(*label).copied().unwrap_or(0);
                row.push(fmt_duration(Duration::from_nanos(ns)));
            }
            row.push(fmt_duration(Duration::from_nanos(total)));
            row
        })
        .collect();

    print_table(
        "Per-phase reconstruction time (from telemetry journal)",
        &[
            "Workload",
            "Iters",
            "Decode",
            "Symbex",
            "Solve",
            "Select",
            "Instrument",
            "Deploy",
            "Total",
        ],
        &rows,
    );

    let effort_rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            for c in EFFORT {
                row.push(r.effort.get(*c).copied().unwrap_or(0).to_string());
            }
            row
        })
        .collect();
    print_table(
        "Per-workload effort counters",
        &[
            "Workload",
            "Symex Steps",
            "SAT Conflicts",
            "SAT Props",
            "PT Packets",
            "Ring Overwrites",
            "Graph Nodes",
        ],
        &effort_rows,
    );

    // The two step loops: deploy time per interpreted instruction, and
    // shepherded-execution time net of its solver queries per symex step.
    let step_rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let phase = |label: &str| r.phase_ns.get(label).copied().unwrap_or(0);
            let effort = |c: &str| r.effort.get(c).copied().unwrap_or(0);
            let symex_self = phase("symbex").saturating_sub(r.symbex_query_ns);
            vec![
                r.name.clone(),
                effort(DEPLOY_INSTRS).to_string(),
                ns_per(phase("deploy"), effort(DEPLOY_INSTRS)),
                effort("symex.steps").to_string(),
                ns_per(symex_self, effort("symex.steps")),
            ]
        })
        .collect();
    print_table(
        "Step-loop cost (ns per interpreted instruction / per symex step)",
        &[
            "Workload",
            "Deploy Instrs",
            "ns/Instr",
            "Symex Steps",
            "ns/Step",
        ],
        &step_rows,
    );

    let solver_rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            for (_, c) in SOLVER {
                row.push(r.effort.get(*c).copied().unwrap_or(0).to_string());
            }
            row
        })
        .collect();
    let mut solver_header = vec!["Workload"];
    solver_header.extend(SOLVER.iter().map(|(label, _)| *label));
    print_table("Per-workload solver counters", &solver_header, &solver_rows);

    // Fleet-simulation runs: one `fleet.run` span per `er_fleet::Fleet::run`,
    // tagged with the workload/fleet label; its counter deltas carry every
    // `fleet.*` counter of that run.
    let mut fleet_runs: BTreeMap<String, FleetRunReport> = BTreeMap::new();
    for ev in &events {
        if ev.kind != "span" || ev.name != "fleet.run" {
            continue;
        }
        let ctx = if ev.ctx.is_empty() {
            "(untagged)".to_string()
        } else {
            ev.ctx.clone()
        };
        let rep = fleet_runs
            .entry(ctx.clone())
            .or_insert_with(|| FleetRunReport {
                name: ctx,
                ..FleetRunReport::default()
            });
        rep.runs += 1;
        rep.wall_ns += ev.dur_ns;
        for (cname, v) in &ev.counters {
            if cname.starts_with("fleet.") {
                *rep.counters.entry(cname.clone()).or_default() += v;
            }
        }
    }
    let fleet_reports: Vec<&FleetRunReport> = fleet_runs.values().collect();
    if !fleet_reports.is_empty() {
        let fleet_rows: Vec<Vec<String>> = fleet_reports
            .iter()
            .map(|r| {
                let mut row = vec![r.name.clone()];
                for (_, c) in FLEET {
                    row.push(r.counters.get(*c).copied().unwrap_or(0).to_string());
                }
                row.push(fmt_duration(Duration::from_nanos(r.wall_ns)));
                row
            })
            .collect();
        let mut header = vec!["Fleet"];
        header.extend(FLEET.iter().map(|(label, _)| *label));
        header.push("Wall");
        print_table(
            "Fleet simulation counters (per fleet.run span)",
            &header,
            &fleet_rows,
        );
    }

    // Chaos fault-injection counters (`chaos.*`) and durability/watchdog
    // counters (`durable.*`, `watchdog.*`), summed over the top-level
    // driver spans — `reconstruct` for the serial path, `fleet.run` for
    // fleet runs, `durable.recover` for WAL replay (opened by
    // `Scheduler::recover` *before* the resumed `fleet.run` starts) — so
    // each delta is counted exactly once (those spans never nest;
    // everything else is a child of one of them).
    let mut chaos: BTreeMap<String, u64> = BTreeMap::new();
    let mut robustness: BTreeMap<String, u64> = BTreeMap::new();
    for ev in &events {
        if ev.kind != "span"
            || (ev.name != "reconstruct" && ev.name != "fleet.run" && ev.name != "durable.recover")
        {
            continue;
        }
        for (cname, v) in &ev.counters {
            if cname.starts_with("chaos.") {
                *chaos.entry(cname.clone()).or_default() += v;
            }
            if cname.starts_with("durable.") || cname.starts_with("watchdog.") {
                *robustness.entry(cname.clone()).or_default() += v;
            }
        }
    }
    if !chaos.is_empty() {
        let chaos_rows: Vec<Vec<String>> = chaos
            .iter()
            .map(|(c, v)| vec![c.clone(), v.to_string()])
            .collect();
        print_table(
            "Chaos fault-injection counters (injected vs. handled)",
            &["Counter", "Count"],
            &chaos_rows,
        );
    }
    if !robustness.is_empty() {
        let robust_rows: Vec<Vec<String>> = robustness
            .iter()
            .map(|(c, v)| vec![c.clone(), v.to_string()])
            .collect();
        print_table(
            "Durability & watchdog counters (WAL, recovery, supervision)",
            &["Counter", "Count"],
            &robust_rows,
        );
    }

    println!(
        "{} workloads, {} fleet runs, {} span events",
        reports.len(),
        fleet_reports.len(),
        events.iter().filter(|e| e.kind == "span").count()
    );
    #[derive(Serialize)]
    struct ObsReport {
        workloads: Vec<WorkloadReport>,
        fleet: Vec<FleetRunReport>,
        chaos: BTreeMap<String, u64>,
        robustness: BTreeMap<String, u64>,
    }
    drop((reports, fleet_reports));
    write_json(
        "obs_report",
        &ObsReport {
            workloads: by_workload.into_values().collect(),
            fleet: fleet_runs.into_values().collect(),
            chaos,
            robustness,
        },
    );
}
