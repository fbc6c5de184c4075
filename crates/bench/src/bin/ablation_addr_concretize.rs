//! Regenerates the **address-handling ablation** (DESIGN.md §6 item 4):
//! ER's engine keeps single-object symbolic-address accesses symbolic
//! (building `Read`/`Write` constraints) and only concretizes as a
//! fallback. The alternative — concretizing *every* symbolic address to its
//! model value, as naive concolic engines do — avoids array constraints
//! entirely but over-constrains the generated input and changes the
//! iteration dynamics.

use er_bench::harness::{fmt_duration, print_table, write_json};
use er_core::deploy::Deployment;
use er_core::reconstruct::{ErConfig, Reconstructor};
use er_minilang::env::Env;
use er_symex::SymConfig;
use er_workloads::{all, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: String,
    symbolic_reproduced: bool,
    symbolic_occurrences: u32,
    symbolic_secs: f64,
    concretize_reproduced: bool,
    concretize_occurrences: u32,
    concretize_secs: f64,
}

fn main() {
    println!("# Ablation: symbolic single-object addressing vs always-concretize");
    let mut rows_out = Vec::new();
    for w in all().into_iter().filter(|w| w.expected_occurrences > 1) {
        let sym = Reconstructor::new(w.er_config()).reconstruct(&w.deployment(Scale::TEST));
        let config = ErConfig {
            sym: SymConfig {
                always_concretize: true,
                ..w.er_config().sym
            },
            ..w.er_config()
        };
        let conc = Reconstructor::new(config).reconstruct(&w.deployment(Scale::TEST));
        er_telemetry::log!(
            info,
            "  {}: symbolic occ={} ({}) | concretize occ={} ({})",
            w.name,
            sym.occurrences,
            sym.reproduced(),
            conc.occurrences,
            conc.reproduced()
        );
        rows_out.push(Row {
            name: w.name.to_string(),
            symbolic_reproduced: sym.reproduced(),
            symbolic_occurrences: sym.occurrences,
            symbolic_secs: sym.total_symbex().as_secs_f64(),
            concretize_reproduced: conc.reproduced(),
            concretize_occurrences: conc.occurrences,
            concretize_secs: conc.total_symbex().as_secs_f64(),
        });
    }

    // The paper's own Fig. 3 example is where concretization breaks: the
    // crash requires V-aliasing (x == d), and pinning each symbolic address
    // to an arbitrary feasible model value contradicts the recorded branch
    // outcomes downstream.
    let fig3 = er_minilang::compile(
        r#"
        global V: [u32; 256];
        fn foo(a: u32, b: u32, c: u32, d: u32) {
            let x: u32 = a + b;
            if x < 256 && c < 256 && d < 256 {
                V[x] = 1;
                if V[c] == 0 { V[c] = 512; }
                V[V[x]] = x;
                if c < d { if V[V[d]] == x { abort("fig3"); } }
            }
        }
        fn main() {
            let a: u32 = input_u32(0);
            let b: u32 = input_u32(0);
            let c: u32 = input_u32(0);
            let d: u32 = input_u32(0);
            foo(a, b, c, d);
            print(0);
        }
        "#,
    )
    .expect("fig3 compiles");
    let fig3_gen = |run: u64| {
        let mut env = Env::new();
        let vals: [u32; 4] = if run % 5 == 4 {
            [0, 2, 0, 2]
        } else {
            [(run % 100) as u32, 2, 1, 57]
        };
        for v in vals {
            env.push_input(0, &v.to_le_bytes());
        }
        env
    };
    let fig3_config = |always_concretize: bool| ErConfig {
        sym: SymConfig {
            solver_budget: er_solver::solve::Budget {
                max_conflicts: 5_000,
                max_array_cells: 900,
                max_clauses: 400_000,
            },
            max_steps: 10_000_000,
            always_concretize,
            ..SymConfig::default()
        },
        final_budget: er_solver::solve::Budget {
            max_conflicts: 50_000,
            max_array_cells: 900,
            max_clauses: 400_000,
        },
        max_occurrences: 8,
        ..ErConfig::default()
    };
    let sym = Reconstructor::new(fig3_config(false))
        .reconstruct(&Deployment::new(fig3.clone(), fig3_gen));
    let conc =
        Reconstructor::new(fig3_config(true)).reconstruct(&Deployment::new(fig3.clone(), fig3_gen));
    er_telemetry::log!(
        info,
        "  Fig. 3: symbolic occ={} ({}) | concretize occ={} ({})",
        sym.occurrences,
        sym.reproduced(),
        conc.occurrences,
        conc.reproduced()
    );
    rows_out.push(Row {
        name: "Paper Fig. 3 (aliasing)".into(),
        symbolic_reproduced: sym.reproduced(),
        symbolic_occurrences: sym.occurrences,
        symbolic_secs: sym.total_symbex().as_secs_f64(),
        concretize_reproduced: conc.reproduced(),
        concretize_occurrences: conc.occurrences,
        concretize_secs: conc.total_symbex().as_secs_f64(),
    });

    let rows: Vec<Vec<String>> = rows_out
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!(
                    "{} occ, {}",
                    r.symbolic_occurrences,
                    fmt_duration(std::time::Duration::from_secs_f64(r.symbolic_secs))
                ),
                format!(
                    "{}{} occ, {}",
                    if r.concretize_reproduced {
                        ""
                    } else {
                        "FAILED after "
                    },
                    r.concretize_occurrences,
                    fmt_duration(std::time::Duration::from_secs_f64(r.concretize_secs))
                ),
            ]
        })
        .collect();
    print_table(
        "ER addressing (symbolic within one object) vs always-concretize",
        &["Workload", "ER (symbolic)", "Always-concretize"],
        &rows,
    );
    write_json("ablation_addr_concretize", &rows_out);
}
