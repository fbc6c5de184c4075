//! End-to-end benchmark of the Execution Reconstruction pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets the workload up, observes every failure once as the oracle,
//! warms up, then investigates failures back to back for `--seconds`,
//! checking each test case by replaying it and setting the workload up
//! again after every few investigations (`setup_s` is the median). The
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: end-to-end metrics with `--trace 0`; with
//! `--trace 1`, telemetry counters are switched on and the metrics are
//! per-layer figures read from them instead. Progress goes to stderr.

mod deep;
mod speed;
mod workloads;

use er_telemetry::CounterSnapshot;
use speed::Bracket;
use std::time::{Duration, Instant};
use workloads::{Plan, Sample, NAMES};

/// A metric's name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// Untimed investigations before the measured window.
const WARMUP: usize = 13;
/// One timed set-up follows every this many investigations; `setup_s` is
/// the median of all set-ups in the run.
const SETUP_EVERY: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {NAMES:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Per-layer figures from the counters the pipeline's telemetry spans and
/// counters accumulated over the measured window, per investigation.
/// Span times are scaled to nominal machine speed like the end-to-end
/// latencies, by the window's ratio of nominal to wall time.
fn layer_metrics(d: &CounterSnapshot, samples: &[Sample], nominal_ms: &[f64]) -> Vec<Metric> {
    let n = samples.len() as f64;
    let wall_ms: f64 = samples.iter().map(|s| s.latency.as_secs_f64() * 1e3).sum();
    let speed_scale = nominal_ms.iter().sum::<f64>() / wall_ms;
    let ms = |ns: u64| ns as f64 / 1e6 / n * speed_scale;
    let per = |count: u64| count as f64 / n;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let span = |name: &str| d.get(&format!("span.{name}.ns"));
    let solver_ns = span("solver.query");
    // Solver queries run inside the symbex and final-solve spans; the
    // executor's self time is what remains.
    let symex_self_ns =
        (span("shepherd.symbex") + span("shepherd.solve")).saturating_sub(solver_ns);
    let hits = d.get("solver.cache_hits");
    vec![
        ("speed_scale", speed_scale, "ratio"),
        (
            "deploy_ms",
            ms(span("phase.deploy") + span("fleet.produce")),
            "ms",
        ),
        ("ingest_ms", ms(span("fleet.ingest")), "ms"),
        ("decode_ms", ms(span("shepherd.decode")), "ms"),
        ("symex_self_ms", ms(symex_self_ns), "ms"),
        ("solver_ms", ms(solver_ns), "ms"),
        ("select_ms", ms(span("phase.select")), "ms"),
        ("instrument_ms", ms(span("phase.instrument")), "ms"),
        ("deploy_runs", per(d.get("deploy.runs")), "count"),
        ("trace_kib", per(d.get("pt.trace_bytes")) / 1024.0, "KiB"),
        ("symex_steps", per(d.get("symex.steps")), "count"),
        (
            "checkpoint_resumes",
            per(d.get("symex.checkpoint_resumes")),
            "count",
        ),
        ("solver_queries", per(d.get("solver.queries")), "count"),
        ("sat_conflicts", per(d.get("sat.conflicts")), "count"),
        ("solver_stalls", per(d.get("solver.stalls")), "count"),
        (
            "solver_cache_hit_ratio",
            ratio(hits, hits + d.get("solver.cache_misses")),
            "ratio",
        ),
        (
            "store_dedup_ratio",
            ratio(d.get("fleet.store.dedup_hits"), d.get("fleet.store.puts")),
            "ratio",
        ),
        (
            "store_compression_ratio",
            ratio(
                d.get("fleet.store.bytes_raw"),
                d.get("fleet.store.bytes_compressed"),
            ),
            "ratio",
        ),
    ]
}

/// What a user of the pipeline sees: how long one failure takes to
/// reproduce, how many reproductions complete per second of analysis, how
/// many occurrences a reproduction costs, and the set-up time. Times are
/// at nominal machine speed (see `speed`).
fn end_to_end_metrics(samples: &[Sample], nominal_ms: &[f64], setup_s: f64) -> Vec<Metric> {
    let mut ms = nominal_ms.to_vec();
    ms.sort_by(f64::total_cmp);
    let busy_s = ms.iter().sum::<f64>() / 1e3;
    let reproduced = samples.iter().filter(|s| s.ok).count() as f64;
    let occurrences: u32 = samples.iter().map(|s| s.occurrences).sum();
    vec![
        ("investigation_ms", quantile(&ms, 0.5), "ms"),
        ("investigation_p90_ms", quantile(&ms, 0.9), "ms"),
        ("repros_per_s", reproduced / busy_s, "1/s"),
        (
            "occurrences_per_repro",
            f64::from(occurrences) / reproduced.max(1.0),
            "count",
        ),
        ("setup_s", setup_s, "s"),
    ]
}

fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("er-perfbench: {e}");
            eprintln!(
                "usage: er-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };

    // Set explicitly, so `ER_TELEMETRY` in the environment can neither
    // change what is measured nor make the journal write files.
    er_telemetry::set_mode(if args.trace {
        er_telemetry::Mode::Counters
    } else {
        er_telemetry::Mode::Off
    });

    let set_up = || {
        let start = Instant::now();
        let plan = Plan::set_up(&args.workload, args.seed).expect("workload name validated");
        (plan, start.elapsed())
    };
    let mut bracket = Bracket::start();
    let (mut plan, first) = set_up();
    let mut setups_ms = vec![bracket.scale(first)];
    plan.observe_oracles();

    // Warm-up: untimed investigations fill allocator pools and caches.
    for _ in 0..WARMUP {
        plan.next();
    }

    let before = er_telemetry::global_snapshot();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut nominal_ms = Vec::new();
    let mut bracket = Bracket::start();
    while start.elapsed() < budget {
        let sample = plan.next();
        nominal_ms.push(bracket.scale(sample.latency));
        samples.push(sample);
        // Set-ups spread over the window see the same machine as the
        // investigations, so their median is as steady as the latencies.
        if samples.len() % SETUP_EVERY == 0 {
            let wall = set_up().1;
            setups_ms.push(bracket.scale(wall));
        }
    }
    let delta = er_telemetry::global_snapshot().delta(&before);
    let setup_s = median(&mut setups_ms) / 1e3;

    let failed = samples.iter().filter(|s| !s.ok).count();
    eprintln!(
        "{}: seed {}: {} investigations, {} failed checks, {} set-ups",
        args.workload,
        args.seed,
        samples.len(),
        failed,
        setups_ms.len()
    );
    let metrics = if args.trace {
        layer_metrics(&delta, &samples, &nominal_ms)
    } else {
        end_to_end_metrics(&samples, &nominal_ms, setup_s)
    };
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<24} {value:>14.4} {unit}");
    }
    println!("{}", result_line(samples.len(), failed, &metrics));
}
