//! Regenerates **Table 1**: the 13 bugs with bug type, threading, failing-run
//! instruction count, occurrences needed, and total shepherded-symbex time —
//! plus the §5.3 offline-overhead columns (largest constraint graph, trace
//! bytes).
//!
//! Usage: `table1 [--test] [--serial] [--baseline]` — `--test` runs the
//! small-scale workloads, `--serial` disables the worker pool, and
//! `--baseline` disables the incremental solver, and only that.

use er_bench::harness::{fmt_duration, print_table, write_json};
use er_bench::rows::{table1_rows, RowOptions};
use er_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_scale = args.iter().any(|a| a == "--test");
    let opts = RowOptions {
        scale: if test_scale { Scale::TEST } else { Scale::FULL },
        serial: args.iter().any(|a| a == "--serial"),
        baseline: args.iter().any(|a| a == "--baseline"),
    };
    println!(
        "# Table 1 (scale: {}{}{})",
        if test_scale { "test" } else { "full" },
        if opts.serial { ", serial" } else { "" },
        if opts.baseline { ", baseline" } else { "" },
    );

    let rows_out = table1_rows(opts);

    let rows: Vec<Vec<String>> = rows_out
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.bug_type.clone(),
                if r.multithreaded { "Y" } else { "N" }.into(),
                r.instr_count.to_string(),
                r.occurrences.to_string(),
                r.expected_occurrences.to_string(),
                fmt_duration(std::time::Duration::from_secs_f64(r.symbex_seconds)),
                if r.reproduced { "yes" } else { "NO" }.into(),
                r.max_graph_nodes.to_string(),
                r.trace_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1: bugs reproduced by ER",
        &[
            "Application-BugID",
            "Bug Type",
            "MT",
            "#Instr",
            "#Occur",
            "#Occur (paper)",
            "Symbex Time",
            "Reproduced",
            "Graph Nodes (max)",
            "Trace Bytes",
        ],
        &rows,
    );

    let reproduced = rows_out.iter().filter(|r| r.reproduced).count();
    let avg_occ: f64 = rows_out
        .iter()
        .map(|r| f64::from(r.occurrences))
        .sum::<f64>()
        / rows_out.len() as f64;
    let single = rows_out.iter().filter(|r| r.occurrences == 1).count();
    println!("Reproduced: {reproduced}/13 (paper: 13/13)");
    println!("Average occurrences: {avg_occ:.2} (paper: ~3.5)");
    println!("Single-occurrence reproductions: {single}/13 (paper: 2/13)");
    write_json("table1", &rows_out);
}
