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
/// `er-core::reconstruct` and `er-core::shepherd`, plus the fleet's
/// analyze-side trace fetch; none nests inside another.
const PHASES: &[(&str, &str)] = &[
    ("fetch", "fleet.fetch"),
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
    "symex.addr_witnessed",
    "symex.addr_bounded",
    "symex.overlay_stores",
    "symex.overlay_bytes_built",
    "sat.conflicts",
    "sat.propagations",
    "pt.packets_encoded",
    "ring.overwrites",
    "select.graph_nodes",
];

/// Dynamic instructions of traced production runs; with the deploy phase
/// time it gives the interpreter's cost per instruction.
const DEPLOY_INSTRS: &str = "deploy.instrs";

/// Warm starts captured: one per original binary that has a prefix, and
/// one per rebuild whose prefix reaches a recorded site.
const WARM_CAPTURES: &str = "deploy.warm_captures";

/// Warm starts a rebuild translated from its original binary's instead
/// of capturing its own.
const WARM_REUSES: &str = "deploy.warm_reuses";

/// Production instructions started from a warm start instead of being
/// interpreted; over `deploy.instrs` it gives the prefix share.
const WARM_INSTRS: &str = "deploy.warm_instrs";

/// Symex steps that ran on machine words, in all-concrete frames; over
/// `symex.steps` it gives the word loop's share.
const WORD_OPS: &str = "symex.word_ops";

/// Shepherded runs started from their binary's symbolic warm start.
const SYMEX_WARM_STARTS: &str = "symex.warm_starts";

/// Symex steps those runs skipped: the prefix each started past. Over
/// itself plus `symex.steps` it gives the prefix share of the shepherd.
const SYMEX_WARM_STEPS: &str = "symex.warm_steps";

/// Traces that did not start with their binary's warm prefix events, and
/// were shepherded from the entry instead.
const SYMEX_WARM_FALLBACKS: &str = "symex.warm_fallbacks";

/// Solver counters summarized per workload, with their column labels:
/// query volume, stalls, prefix-cache reuse, clauses assumption probes
/// reused from the persistent solver, clauses the final input solve took
/// over from the shepherded run's engine, and gates the bit-blaster found
/// already built.
const SOLVER: &[(&str, &str)] = &[
    ("Queries", "solver.queries"),
    ("Stalls", "solver.stalls"),
    ("Cache Hits", "solver.cache_hits"),
    ("Cache Misses", "solver.cache_misses"),
    ("Probe Reused", "solver.clauses_reused"),
    ("Handoff Reused", "solver.handoff_reused_clauses"),
    ("Gates Shared", "solver.gates_shared"),
];

/// The solver's phase spans, nested in every `solver.query`, with their
/// column labels: array elimination, bit-blasting, copying clauses into
/// the SAT engine, and CDCL search.
const SOLVER_PHASES: &[(&str, &str)] = &[
    ("Elim", "solver.elim"),
    ("Blast", "solver.blast"),
    ("Feed", "solver.feed"),
    ("SAT", "solver.sat"),
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

/// `part` as a percentage of `whole`, or `-` when `whole` is zero.
fn share(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / whole as f64)
    }
}

#[derive(Default, Serialize)]
struct WorkloadReport {
    name: String,
    iterations: u64,
    phase_ns: BTreeMap<String, u64>,
    /// Solver time spent inside shepherded execution (address
    /// resolution), as opposed to the final input solve.
    symbex_query_ns: u64,
    /// Time per solver span: every `solver.query` and its phases.
    solver_ns: BTreeMap<String, u64>,
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
        if ev.name == "solver.query" || SOLVER_PHASES.iter().any(|(_, span)| *span == ev.name) {
            *rep.solver_ns.entry(ev.name.clone()).or_default() += ev.dur_ns;
        }
        // A span's counter deltas include those of its children, so sum
        // effort only over the sibling per-iteration spans — each unit of
        // work is counted exactly once.
        if ev.name == "reconstruct.iteration" {
            rep.iterations += 1;
            for (cname, v) in &ev.counters {
                if EFFORT.contains(&cname.as_str())
                    || SOLVER.iter().any(|(_, c)| c == cname)
                    || [
                        DEPLOY_INSTRS,
                        WARM_CAPTURES,
                        WARM_REUSES,
                        WARM_INSTRS,
                        WORD_OPS,
                        SYMEX_WARM_STARTS,
                        SYMEX_WARM_STEPS,
                        SYMEX_WARM_FALLBACKS,
                    ]
                    .contains(&cname.as_str())
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
            "Fetch",
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
            "Addr Witnessed",
            "Addr Bounded",
            "Overlay Stores",
            "Bytes Built",
            "SAT Conflicts",
            "SAT Props",
            "PT Packets",
            "Ring Overwrites",
            "Graph Nodes",
        ],
        &effort_rows,
    );

    // The two step loops: deploy time per production instruction, with
    // the share of those instructions a warm start skipped, and
    // shepherded-execution time net of its solver queries per symex step,
    // with where shepherded runs started and the share of steps the warm
    // starts skipped.
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
                effort(WARM_CAPTURES).to_string(),
                effort(WARM_REUSES).to_string(),
                share(effort(WARM_INSTRS), effort(DEPLOY_INSTRS)),
                effort("symex.steps").to_string(),
                ns_per(symex_self, effort("symex.steps")),
                share(effort(WORD_OPS), effort("symex.steps")),
                effort(SYMEX_WARM_STARTS).to_string(),
                effort(SYMEX_WARM_FALLBACKS).to_string(),
                share(
                    effort(SYMEX_WARM_STEPS),
                    effort(SYMEX_WARM_STEPS) + effort("symex.steps"),
                ),
            ]
        })
        .collect();
    print_table(
        "Step-loop cost (ns per production instruction / per symex step)",
        &[
            "Workload",
            "Deploy Instrs",
            "ns/Instr",
            "Warm Captures",
            "Warm Reuses",
            "Prefix Share",
            "Symex Steps",
            "ns/Step",
            "Word-Loop Share",
            "Symex Warm Starts",
            "Warm Fallbacks",
            "Symex Prefix Share",
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

    // Where solver time goes: each phase span's total, and what the
    // enclosing queries spent outside them (prefix checks, model
    // extraction, scope bookkeeping).
    let phase_rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let ns = |span: &str| r.solver_ns.get(span).copied().unwrap_or(0);
            let query = ns("solver.query");
            let mut row = vec![r.name.clone(), fmt_duration(Duration::from_nanos(query))];
            let mut phases = 0;
            for (_, span) in SOLVER_PHASES {
                phases += ns(span);
                row.push(fmt_duration(Duration::from_nanos(ns(span))));
            }
            row.push(fmt_duration(Duration::from_nanos(
                query.saturating_sub(phases),
            )));
            row
        })
        .collect();
    let mut phase_header = vec!["Workload", "Query"];
    phase_header.extend(SOLVER_PHASES.iter().map(|(label, _)| *label));
    phase_header.push("Other");
    print_table(
        "Solver phases (time inside solver.query)",
        &phase_header,
        &phase_rows,
    );

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
