//! Regression for the fleet pool's panic path: a panicking worker closure
//! used to poison its result slot and abort the entire round via
//! `expect("result slot poisoned")`. With `try_parallel_map`, a panic
//! costs exactly its own item — here, one of the 13 Table-1 workloads
//! blows up mid-closure while the other 12 still reproduce their failures.

use er_core::Reconstructor;
use er_fleet::pool::try_parallel_map;
use er_workloads::{all, Scale};

#[test]
fn one_panicking_workload_does_not_abort_the_round() {
    let workloads = all();
    assert_eq!(workloads.len(), 13, "Table 1 has 13 workloads");
    // The panicking "workload" stands in for any closure bug: a corrupted
    // report, an assertion in analysis code, an index out of bounds.
    let doomed = "PHP-74194";
    // The pool's jobs own their items, so the round gets its own copy of
    // the workload list.
    let results = try_parallel_map(all(), false, move |_, w| {
        assert!(w.name != doomed, "injected workload panic");
        Reconstructor::new(w.er_config()).reconstruct(&w.deployment(Scale::TEST))
    });
    assert_eq!(results.len(), 13);
    let mut reproduced = 0;
    let mut panicked = 0;
    for (w, r) in workloads.iter().zip(&results) {
        match r {
            Ok(report) => {
                assert!(report.reproduced(), "{}: must still reproduce", w.name);
                reproduced += 1;
            }
            Err(e) => {
                assert_eq!(w.name, doomed, "only the doomed workload may die");
                assert!(
                    e.message.contains("injected workload panic"),
                    "{}",
                    e.message
                );
                panicked += 1;
            }
        }
    }
    assert_eq!((reproduced, panicked), (12, 1));
}
