//! Kill-restart sweep (PR 5): the Table-1 workloads under seeded
//! scheduler crashes.
//!
//! For every workload, runs a durable (WAL-journaling) fleet to
//! completion once as the uncrashed reference, then re-runs it with
//! [`er_chaos::Fault::WalTear`] armed at seeded WAL positions: the n-th
//! append tears mid-write and the "process" dies (an unwind carrying
//! [`er_durable::CrashSignal`]). Each crashed run is restarted with
//! [`Fleet::resume`], which replays the torn WAL, rebuilds the in-flight
//! sessions, and re-enters the round loop. Asserts, per crash point:
//!
//! * the restart resumes from durable state — `durable.resumes` fires;
//! * the resumed run converges **bit-identically** to the uncrashed
//!   reference — no occurrence lost, none double-counted
//!   (`durable.replay_divergence` stays zero);
//! * nothing panics after the injected crash itself.
//!
//! A final per-workload *watchdog* leg runs a shepherd budget of half the
//! reference run's smallest per-occurrence step count, with a generous
//! escalation ladder: the first attempt must stall, stalled iterations
//! must be cancelled, re-queued, and still converge to the reference
//! answer with zero panics.
//!
//! * default: all 13 workloads × `CRASH_POINTS` seeded positions,
//!   writes `results/BENCH_CRASH.json`.
//! * `--smoke`: 3 workloads × `CRASH_POINTS` positions (CI gate).

use er_bench::fleet_spec;
use er_bench::harness::{fmt_duration, print_table, write_json};
use er_chaos::{ChaosPlan, Fault, FaultPolicy};
use er_durable::{fnv64, CrashSignal, Wal, WatchdogConfig};
use er_fleet::sched::SchedulerConfig;
use er_fleet::sim::{Fleet, FleetConfig, FleetReport, Traffic};
use er_solver::cancel::PhaseBudgets;
use er_workloads::{all, by_name, Workload};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const FLEET_SIZE: usize = 2;
const SMOKE_WORKLOADS: &[&str] = &["Libpng-2004-0597", "PHP-74194", "Memcached-2019-11596"];
const CRASH_POINTS: usize = 3;
const SEED: u64 = 0xc4a5_45ee;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fleet_with(w: &Workload, durable: Option<PathBuf>, watchdog: Option<WatchdogConfig>) -> Fleet {
    Fleet::new(
        fleet_spec(w),
        FleetConfig {
            instances: FLEET_SIZE,
            serial: true, // deterministic baseline: crashes, not thread timing
            traffic: Traffic::Mirrored,
            durable,
            sched: SchedulerConfig {
                watchdog,
                ..SchedulerConfig::default()
            },
            ..FleetConfig::default()
        },
    )
}

/// One group's answer row: group id, reproduced?, occurrences, test-case
/// inputs — everything a crash or a watchdog must not change.
type GroupAnswer = (u64, bool, u32, Vec<(u32, Vec<u8>)>);

fn answer(r: &FleetReport) -> Vec<GroupAnswer> {
    let mut rows: Vec<_> = r
        .groups
        .iter()
        .map(|g| {
            (
                g.group,
                g.report.reproduced(),
                g.report.occurrences,
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

/// Seeded pick of `k` distinct crash positions (0-based append indices)
/// from `[lo, hi]`, via a partial Fisher–Yates over the candidate range.
fn crash_positions(lo: u64, hi: u64, k: usize, state: &mut u64) -> Vec<u64> {
    let mut candidates: Vec<u64> = (lo..=hi).collect();
    let k = k.min(candidates.len());
    for i in 0..k {
        let j = i + (splitmix64(state) as usize) % (candidates.len() - i);
        candidates.swap(i, j);
    }
    candidates.truncate(k);
    candidates.sort_unstable();
    candidates
}

#[derive(Serialize)]
struct CrashRow {
    workload: String,
    /// `crash@n` for kill-restart legs, `watchdog` for the supervision leg.
    leg: String,
    /// Total appends in the uncrashed reference WAL.
    wal_appends: u64,
    /// Records durably on disk when the injected tear fired.
    records_at_crash: Option<u64>,
    reproduced: bool,
    bit_identical: bool,
    resumes: u64,
    replay_divergence: u64,
    escalations: u64,
    panicked: bool,
    wall_ms: f64,
}

fn sweep_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("er-crash-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create sweep dir");
    dir
}

fn main() {
    // Counter deltas (durable.resumes, watchdog.escalations, …) are
    // this sweep's resume evidence: collect at least counters, keeping a
    // `full` journal if ER_TELEMETRY asked for one.
    if er_telemetry::mode() == er_telemetry::Mode::Off {
        er_telemetry::set_mode(er_telemetry::Mode::Counters);
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workloads: Vec<Workload> = if smoke {
        SMOKE_WORKLOADS
            .iter()
            .map(|n| by_name(n).expect("smoke workload exists"))
            .collect()
    } else {
        all()
    };
    let dir = sweep_dir();

    let mut rows: Vec<CrashRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for w in &workloads {
        // Uncrashed durable reference: the answer every crash leg must
        // match, and the WAL whose length bounds the crash positions.
        er_telemetry::set_context(&format!("{}/crash-reference", w.name));
        let ref_path = dir.join(format!("{}-reference.wal", w.name));
        let reference_report = fleet_with(w, Some(ref_path.clone()), None).run();
        er_telemetry::set_context("");
        if !reference_report.all_reproduced() {
            failures.push(format!("{}: uncrashed durable run must reproduce", w.name));
            continue;
        }
        let reference = answer(&reference_report);
        let shepherd_budget = (reference_report
            .groups
            .iter()
            .flat_map(|g| &g.report.iterations)
            .map(|it| it.symbex_steps)
            .min()
            .unwrap_or(0)
            / 2)
        .max(1);
        let (_wal, events, info) = Wal::open(&ref_path).expect("reference WAL opens");
        assert_eq!(info.torn_bytes, 0, "{}: clean run tore its WAL", w.name);
        let wal_appends = events.len() as u64;
        drop(_wal);
        std::fs::remove_file(&ref_path).ok();

        // Crash positions: skip append 0 (an empty WAL is a cold start,
        // not a resume); tearing anything up to and including the final
        // (terminal-verdict) append is fair game.
        let mut rng = SEED ^ fnv64(w.name.as_bytes());
        let hi = wal_appends.saturating_sub(1).max(1);
        let positions = crash_positions(1, hi, CRASH_POINTS, &mut rng);

        for &p in &positions {
            let leg = format!("{} [crash@{p}]", w.name);
            er_telemetry::set_context(&format!("{}/crash-at-{p}", w.name));
            let path = dir.join(format!("{}-crash-{p}.wal", w.name));
            let fleet = fleet_with(w, Some(path.clone()), None);

            // Kill: the (p+1)-th WAL append tears mid-write and the
            // scheduler dies. The unwind is the point — silence the
            // default panic hook for this closure only.
            let guard = er_chaos::arm(
                ChaosPlan::new(SEED ^ p).with(Fault::WalTear, FaultPolicy::at_nth(p)),
            );
            let start = Instant::now();
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let crash = catch_unwind(AssertUnwindSafe(|| fleet.run()));
            std::panic::set_hook(hook);
            drop(guard);
            let records_at_crash = match &crash {
                Err(payload) => payload
                    .downcast_ref::<CrashSignal>()
                    .map(|s| s.records_appended),
                Ok(_) => None,
            };
            if crash.is_ok() {
                failures.push(format!("{leg}: armed tear did not crash the run"));
            } else if records_at_crash.is_none() {
                failures.push(format!("{leg}: crash payload was not a CrashSignal"));
            }

            // Restart: replay the torn WAL and converge.
            let before = er_telemetry::global_snapshot();
            let resumed = catch_unwind(AssertUnwindSafe(|| fleet.resume()));
            let delta = er_telemetry::global_snapshot().delta(&before);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            er_telemetry::set_context("");

            let (panicked, report) = match resumed {
                Ok(Ok(report)) => (false, Some(report)),
                Ok(Err(e)) => {
                    failures.push(format!("{leg}: resume failed: {e}"));
                    (false, None)
                }
                Err(_) => (true, None),
            };
            let reproduced = report.as_ref().is_some_and(FleetReport::all_reproduced);
            let bit_identical = report.as_ref().is_some_and(|r| answer(r) == reference);
            let row = CrashRow {
                workload: w.name.to_string(),
                leg: format!("crash@{p}"),
                wal_appends,
                records_at_crash,
                reproduced,
                bit_identical,
                resumes: delta.get("durable.resumes"),
                replay_divergence: delta.get("durable.replay_divergence"),
                escalations: 0,
                panicked,
                wall_ms,
            };
            if row.panicked {
                failures.push(format!("{leg}: PANICKED after restart"));
            }
            if !row.reproduced || !row.bit_identical {
                failures.push(format!(
                    "{leg}: must reproduce bit-identically (reproduced={}, bit_identical={})",
                    row.reproduced, row.bit_identical
                ));
            }
            if row.resumes == 0 {
                failures.push(format!("{leg}: durable.resumes did not fire"));
            }
            if row.replay_divergence != 0 {
                failures.push(format!(
                    "{leg}: WAL replay diverged from journaled history ({}×)",
                    row.replay_divergence
                ));
            }
            rows.push(row);
            std::fs::remove_file(&path).ok();
        }

        // Watchdog leg: a shepherd budget below every occurrence's symex
        // step count, so the first attempt stalls, with a ladder generous
        // enough that some rung always fits. Stalls must be cancelled +
        // re-queued, the ladder must not be exhausted, and the answer must
        // not move.
        let leg = format!("{} [watchdog]", w.name);
        er_telemetry::set_context(&format!("{}/watchdog", w.name));
        let wd = WatchdogConfig {
            budgets: PhaseBudgets {
                shepherd: shepherd_budget,
                ..PhaseBudgets::unlimited()
            },
            escalation_factor: 8,
            max_escalations: 10,
        };
        let before = er_telemetry::global_snapshot();
        let start = Instant::now();
        let watched = catch_unwind(AssertUnwindSafe(|| fleet_with(w, None, Some(wd)).run()));
        let delta = er_telemetry::global_snapshot().delta(&before);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        er_telemetry::set_context("");
        let (panicked, report) = match watched {
            Ok(report) => (false, Some(report)),
            Err(_) => (true, None),
        };
        let reproduced = report.as_ref().is_some_and(FleetReport::all_reproduced);
        let bit_identical = report.as_ref().is_some_and(|r| answer(r) == reference);
        let row = CrashRow {
            workload: w.name.to_string(),
            leg: "watchdog".to_string(),
            wal_appends,
            records_at_crash: None,
            reproduced,
            bit_identical,
            resumes: 0,
            replay_divergence: 0,
            escalations: delta.get("watchdog.escalations"),
            panicked,
            wall_ms,
        };
        if row.panicked {
            failures.push(format!("{leg}: PANICKED"));
        }
        if row.escalations == 0 {
            failures.push(format!(
                "{leg}: a {shepherd_budget}-step shepherd budget must trip at least once"
            ));
        }
        if delta.get("watchdog.gave_up") != 0 {
            failures.push(format!("{leg}: ladder exhausted despite 8× escalation"));
        }
        if !row.reproduced || !row.bit_identical {
            failures.push(format!(
                "{leg}: cancelled iterations must not change the answer (reproduced={}, bit_identical={})",
                row.reproduced, row.bit_identical
            ));
        }
        rows.push(row);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.leg.clone(),
                format!(
                    "{}/{}",
                    r.records_at_crash
                        .map(|n| n.to_string())
                        .unwrap_or_else(|| "—".into()),
                    r.wal_appends
                ),
                if r.panicked {
                    "PANIC".into()
                } else if r.reproduced {
                    "yes".into()
                } else {
                    "no".into()
                },
                if r.bit_identical { "yes" } else { "—" }.to_string(),
                r.resumes.to_string(),
                r.escalations.to_string(),
                fmt_duration(Duration::from_secs_f64(r.wall_ms / 1e3)),
            ]
        })
        .collect();
    print_table(
        &format!("Crash sweep (seed {SEED:#x}, serial pool, M={FLEET_SIZE})"),
        &[
            "Workload",
            "Leg",
            "Durable/Total",
            "Repro",
            "Bit-ident",
            "Resumes",
            "Escal",
            "Wall",
        ],
        &table,
    );

    if !smoke {
        write_json("BENCH_CRASH", &rows);
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "{} crash/watchdog legs over {} workloads{}",
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
