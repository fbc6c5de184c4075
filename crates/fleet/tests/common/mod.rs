//! What the fleet end-to-end tests share.

use er_fleet::sim::FleetSpec;
use er_workloads::{Scale, Workload};
use std::sync::Arc;

/// A fleet of `w` at test scale: its inputs and schedules, default PT,
/// its reoccurrence model at 1 µs between runs, and its ER configuration.
pub fn spec_for(w: &Workload) -> FleetSpec {
    FleetSpec {
        program: w.program(Scale::TEST),
        input_gen: Arc::new(w.input_gen),
        sched_gen: w.sched_gen.map(|s| {
            let f: Arc<dyn Fn(u64) -> er_minilang::interp::SchedConfig + Send + Sync> = Arc::new(s);
            f
        }),
        pt: er_pt::PtConfig::default(),
        reoccurrence: w.reoccurrence_model(1_000),
        er: w.er_config(),
        label: w.name.to_string(),
    }
}
