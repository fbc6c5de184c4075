//! Regenerates the **§4 solver-timeout trade-off**: the paper tunes a 30 s
//! solver timeout balancing per-iteration symbex time against the number of
//! failure reoccurrences needed. Our deterministic analogue sweeps the
//! solver budget and reports occurrences vs total symbolic-execution work.

use er_bench::harness::{fmt_duration, print_table, write_json};
use er_core::reconstruct::{ErConfig, Reconstructor};
use er_solver::solve::Budget;
use er_symex::SymConfig;
use er_workloads::{by_name, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    budget_cells: u64,
    budget_conflicts: u64,
    reproduced: bool,
    occurrences: u32,
    symbex_seconds: f64,
}

fn main() {
    let w = by_name("PHP-2012-2386").expect("registered");
    println!("# §4 ablation: solver budget (timeout analogue) vs occurrences");

    let budgets: [(u64, u64); 5] = [
        (1_000, 5_000),
        (3_000, 20_000),
        (10_000, 50_000),
        (40_000, 200_000),
        (200_000, 1_000_000),
    ];
    let mut rows_out = Vec::new();
    for (cells, conflicts) in budgets {
        let budget = Budget {
            max_conflicts: conflicts,
            max_array_cells: cells,
            max_clauses: 4_000_000,
        };
        let config = ErConfig {
            sym: SymConfig {
                solver_budget: budget,
                max_steps: 500_000_000,
                always_concretize: false,
                ..SymConfig::default()
            },
            final_budget: budget,
            max_occurrences: 32,
            ..w.er_config()
        };
        let report = Reconstructor::new(config).reconstruct(&w.deployment(Scale::TEST));
        er_telemetry::log!(
            info,
            "  cells={cells} conflicts={conflicts}: occ={} {}",
            report.occurrences,
            fmt_duration(report.total_symbex())
        );
        rows_out.push(Row {
            budget_cells: cells,
            budget_conflicts: conflicts,
            reproduced: report.reproduced(),
            occurrences: report.occurrences,
            symbex_seconds: report.total_symbex().as_secs_f64(),
        });
    }

    let rows: Vec<Vec<String>> = rows_out
        .iter()
        .map(|r| {
            vec![
                r.budget_cells.to_string(),
                r.budget_conflicts.to_string(),
                if r.reproduced { "yes" } else { "no" }.into(),
                r.occurrences.to_string(),
                fmt_duration(std::time::Duration::from_secs_f64(r.symbex_seconds)),
            ]
        })
        .collect();
    print_table(
        "Budget sweep on PHP-2012-2386 (larger budget => fewer occurrences, more symbex work per iteration)",
        &["Cell budget", "Conflict budget", "Reproduced", "#Occur", "Symbex time"],
        &rows,
    );
    write_json("ablation_timeout", &rows_out);
}
