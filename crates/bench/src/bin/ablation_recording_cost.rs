//! Regenerates the **§3.3.2 recording-cost reduction** comparison: the raw
//! bottleneck set vs the DFS-minimized recording set, in bytes per failing
//! run, for the first stalling iteration of each data-requiring workload.

use er_bench::harness::{print_table, write_json};
use er_core::deploy::Deployment;
use er_core::graph::ConstraintGraph;
use er_core::instrument::InstrumentedProgram;
use er_core::select::{self, SelectionInput};
use er_core::shepherd;
use er_workloads::{all, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: String,
    bottleneck_elements: usize,
    bottleneck_bytes: u64,
    recording_sites: usize,
    recording_bytes: u64,
}

fn main() {
    println!("# §3.3.2: bottleneck set vs minimized recording set (first stall)");
    let mut rows_out = Vec::new();
    for w in all() {
        if w.expected_occurrences == 1 {
            continue; // never stalls; nothing to record
        }
        let deployment: Deployment = w.deployment(Scale::TEST);
        let inst = InstrumentedProgram::unmodified(deployment.program());
        let Some(occ) = deployment.run_until_failure(&inst, None, 0, 50_000) else {
            continue;
        };
        let rep = shepherd::shepherd(
            &inst.program,
            &occ.trace,
            Some(&occ.failure_instrumented),
            w.er_config().sym,
        )
        .expect("decodes");
        let run = rep.run;
        let graph = ConstraintGraph::analyze(&run.pool);
        let origins = &run.origins;
        let input = SelectionInput {
            pool: &run.pool,
            origins,
            site_counts: &run.site_counts,
        };
        // Naive strategy: record every bottleneck element at its own site.
        let bottleneck_bytes: u64 = graph
            .bottleneck
            .iter()
            .map(|b| {
                let count = origins
                    .get(&b.expr)
                    .and_then(|s| run.site_counts.get(s))
                    .copied()
                    .unwrap_or(1);
                b.size_bytes * count
            })
            .sum();
        let set = select::select_key_values(&graph, &input);
        er_telemetry::log!(
            info,
            "  {}: bottleneck {} elems / {} B -> recording {} sites / {} B",
            w.name,
            graph.bottleneck.len(),
            bottleneck_bytes,
            set.sites.len(),
            set.total_cost()
        );
        rows_out.push(Row {
            name: w.name.to_string(),
            bottleneck_elements: graph.bottleneck.len(),
            bottleneck_bytes,
            recording_sites: set.sites.len(),
            recording_bytes: set.total_cost(),
        });
    }

    let rows: Vec<Vec<String>> = rows_out
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.bottleneck_elements.to_string(),
                r.bottleneck_bytes.to_string(),
                r.recording_sites.to_string(),
                r.recording_bytes.to_string(),
                format!(
                    "{:.1}x",
                    r.bottleneck_bytes as f64 / r.recording_bytes.max(1) as f64
                ),
            ]
        })
        .collect();
    print_table(
        "Recording-cost reduction by the DFS minimization",
        &[
            "Workload",
            "Bottleneck elems",
            "Bottleneck B",
            "Sites",
            "Recorded B",
            "Reduction",
        ],
        &rows,
    );
    write_json("ablation_recording_cost", &rows_out);
}
