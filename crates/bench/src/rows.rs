//! Shared computation for the Table-1 and Fig.-5 artifacts.
//!
//! The `table1` and `fig5` binaries and the determinism regression tests
//! all consume these functions, so "the benchmark" and "the test" are
//! literally the same code path. Row computation fans out
//! across cores via [`harness::parallel_map`]; `serial` forces the
//! single-threaded order the determinism regression compares against.

use crate::harness::{self, parallel_map};
use er_core::instrument::InstrumentedProgram;
use er_core::reconstruct::ErConfig;
use er_core::{shepherd, Reconstructor};
use er_minilang::ir::InstrId;
use er_solver::solve::Budget;
use er_symex::SymConfig;
use er_workloads::{all, by_name, Scale};
use serde::Serialize;

/// How to run the Table-1 reconstruction sweep.
#[derive(Debug, Clone, Copy)]
pub struct RowOptions {
    /// Workload scale (test or full).
    pub scale: Scale,
    /// Run workloads one at a time on the calling thread.
    pub serial: bool,
    /// Disable the incremental solver (a fresh solver per query): the
    /// uncached baseline the optimized path is compared against. Nothing
    /// else changes.
    pub baseline: bool,
}

/// One Table-1 row (serialized into `results/table1.json`).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct Table1Row {
    pub name: String,
    pub app: String,
    pub bug_type: String,
    pub multithreaded: bool,
    pub instr_count: u64,
    pub occurrences: u32,
    pub expected_occurrences: u32,
    pub symbex_seconds: f64,
    pub wall_seconds: f64,
    pub reproduced: bool,
    pub max_graph_nodes: usize,
    pub trace_bytes: u64,
    pub recorded_bytes_final: u64,
    pub symbex_steps: u64,
    pub solver_work_units: u64,
}

impl Table1Row {
    /// Every field that must be bit-identical across parallel/serial and
    /// incremental/baseline runs — i.e. everything but wall-clock times.
    pub fn deterministic_fields(&self) -> (&str, bool, u64, u32, bool, u64, u64) {
        (
            &self.name,
            self.multithreaded,
            self.instr_count,
            self.occurrences,
            self.reproduced,
            self.trace_bytes,
            self.recorded_bytes_final,
        )
    }
}

/// Applies the baseline switch to a workload's ER configuration: it
/// switches off the incremental solver only.
pub fn apply_mode(mut config: ErConfig, baseline: bool) -> ErConfig {
    if baseline {
        config.sym.incremental_solver = false;
    }
    config
}

/// Reconstructs every Table-1 workload and returns its row.
pub fn table1_rows(opts: RowOptions) -> Vec<Table1Row> {
    parallel_map(all(), opts.serial, move |_, w| {
        // Tag telemetry events with the workload so obs_report can group
        // the journal per Table-1 row; contexts are thread-local, so this
        // must happen on the worker.
        er_telemetry::set_context(w.name);
        let deployment = w.deployment(opts.scale);
        let config = apply_mode(w.er_config(), opts.baseline);
        let (report, wall) =
            harness::time_once(|| Reconstructor::new(config).reconstruct(&deployment));
        er_telemetry::set_context("");
        let last = report.iterations.last();
        Table1Row {
            name: w.name.to_string(),
            app: w.app.to_string(),
            bug_type: w.bug_type.to_string(),
            multithreaded: w.multithreaded,
            instr_count: last.map(|i| i.instr_count).unwrap_or(0),
            occurrences: report.occurrences,
            expected_occurrences: w.expected_occurrences,
            symbex_seconds: report.total_symbex().as_secs_f64(),
            wall_seconds: wall.as_secs_f64(),
            reproduced: report.reproduced(),
            max_graph_nodes: report
                .iterations
                .iter()
                .map(|i| i.graph_nodes)
                .max()
                .unwrap_or(0),
            trace_bytes: last.map(|i| i.trace_bytes).unwrap_or(0),
            recorded_bytes_final: last.map(|i| i.recorded_bytes).unwrap_or(0),
            symbex_steps: report.iterations.iter().map(|i| i.symbex_steps).sum(),
            solver_work_units: report.iterations.iter().map(|i| i.solver_work).sum(),
        }
    })
}

/// One Fig.-5 series point: shepherding the same failing trace under a
/// growing recording set.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Series {
    pub label: String,
    pub sites: usize,
    pub steps: u64,
    pub wall_seconds: f64,
    pub solver_work_units: u64,
    pub solver_queries: u64,
    pub stalled: bool,
}

/// Regenerates the Fig.-5 measurement on PHP-74194.
///
/// # Panics
///
/// Panics if the PHP-74194 reconstruction fails (a regression the
/// benchmark must not paper over).
pub fn fig5_series(scale: Scale) -> Vec<Fig5Series> {
    let w = by_name("PHP-74194").expect("registered");

    // Phase 1: run the normal reconstruction to learn which sites ER's
    // first and second iterations selected.
    let deployment = w.deployment(scale);
    let report = Reconstructor::new(w.er_config()).reconstruct(&deployment);
    assert!(report.reproduced(), "reconstruction must succeed first");
    let iter1: Vec<InstrId> = report.iterations[0].new_sites.clone();
    let mut iter2 = iter1.clone();
    if report.iterations.len() > 1 {
        iter2.extend(report.iterations[1].new_sites.clone());
    }

    // Phase 2: shepherd the same failing run under each recording set with
    // a no-stall budget.
    let generous = SymConfig {
        solver_budget: Budget {
            max_conflicts: 5_000_000,
            max_array_cells: 20_000_000,
            max_clauses: 100_000_000,
        },
        max_steps: 2_000_000_000,
        always_concretize: false,
        ..SymConfig::default()
    };
    let configs: [(&str, Vec<InstrId>); 3] = [
        ("control-flow + no data values", vec![]),
        ("control-flow + 1st-iteration data values", iter1),
        ("control-flow + 2nd-iteration data values", iter2),
    ];

    let mut series = Vec::new();
    for (label, sites) in configs {
        let inst = InstrumentedProgram::new(deployment.program(), &sites);
        let occ = deployment
            .run_until_failure(&inst, None, 0, 50_000)
            .expect("workload fails");
        let rep = shepherd::shepherd(&inst.program, &occ.trace, Some(&occ.failure), generous)
            .expect("trace decodes");
        let stalled = !matches!(rep.run.status, er_symex::ShepherdStatus::Completed);
        series.push(Fig5Series {
            label: label.to_string(),
            sites: inst.sites.len(),
            steps: rep.run.stats.steps,
            wall_seconds: rep.wall.as_secs_f64(),
            solver_work_units: rep.run.stats.work_units,
            solver_queries: rep.run.stats.solver_queries,
            stalled,
        });
    }
    series
}
