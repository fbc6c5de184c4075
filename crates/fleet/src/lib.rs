//! Fleet-scale Execution Reconstruction.
//!
//! The paper's deployment story (§3.1, §4) is a *fleet*: many production
//! instances run under always-on PT tracing; a failure's trace ships to
//! the analysis engine; after each solver stall, a lightly instrumented
//! binary is redeployed to part of the fleet and the engine waits for the
//! failure to *reoccur*. One instance's reoccurrence wait is another
//! instance's crash report, so fleet size converts directly into
//! reconstruction latency. This crate is that missing layer over
//! `er-core`'s single-deployment loop:
//!
//! * [`pool`] — the scoped worker pool all phases fan out on (shared with
//!   `er-bench`, which re-exports it).
//! * [`triage`] — fault-signature clustering of crash reports into
//!   failure groups with reoccurrence-rate statistics.
//! * [`store`] — the content-addressed trace store: compressed decoded
//!   events ([`er_pt::compress`]), cross-occurrence deduplication,
//!   per-group retention caps, byte-budget eviction, optional disk spill.
//! * [`ingest`] — the bounded queue between instances and analysis, with
//!   truncation accounting and backpressure.
//! * [`sched`] — the concurrent reconstruction scheduler: one resumable
//!   [`er_core::ReconstructionSession`] per group, priority-driven
//!   (reoccurrence rate × stall depth), bounded concurrency, versioned
//!   instrumentation rollout.
//! * [`sim`] — the round-based fleet simulator tying it together.
//!
//! With [`sim::FleetConfig::durable`] set, the scheduler journals every
//! transition to an `er-durable` WAL and [`sim::Fleet::resume`] can
//! rebuild the investigation after a crash by replaying them (see
//! `er_durable` for the record format and recovery protocol). [`sched::SchedulerConfig::watchdog`]
//! additionally supervises analyze iterations with per-phase deadlines and
//! an escalation ladder.
//!
//! # Example
//!
//! ```
//! use er_fleet::sim::{Fleet, FleetConfig, FleetSpec, Traffic};
//! use er_core::deploy::ReoccurrenceModel;
//! use er_core::reconstruct::ErConfig;
//! use er_minilang::env::Env;
//! use std::sync::Arc;
//!
//! let program = er_minilang::compile(
//!     r#"
//!     fn main() {
//!         let a: u32 = input_u32(0);
//!         if a * 3 == 21 { abort("boom"); }
//!         print(a);
//!     }
//!     "#,
//! )?;
//! let spec = FleetSpec {
//!     program,
//!     input_gen: Arc::new(|run| {
//!         let mut env = Env::new();
//!         env.push_input(0, &(run as u32).to_le_bytes());
//!         env
//!     }),
//!     sched_gen: None,
//!     pt: er_pt::PtConfig::default(),
//!     reoccurrence: ReoccurrenceModel::default(),
//!     er: ErConfig::default(),
//!     label: "example".into(),
//! };
//! let report = Fleet::new(spec, FleetConfig {
//!     instances: 3,
//!     traffic: Traffic::Mirrored,
//!     ..FleetConfig::default()
//! })
//! .run();
//! assert!(report.all_reproduced());
//! // Two mirrored replicas shipped byte-identical traces: deduplicated.
//! assert!(report.store.dedup_hits >= 2);
//! # Ok::<(), er_minilang::CompileError>(())
//! ```

pub mod ingest;
pub mod pool;
pub mod sched;
pub mod sim;
pub mod store;
pub mod triage;

pub use ingest::{CrashReport, IngestConfig, IngestStats, Ingestor, PendingOccurrence};
pub use pool::{parallel_map, try_parallel_map, WorkerPanic};
pub use sched::{Scheduler, SchedulerConfig};
pub use sim::{Fleet, FleetConfig, FleetGroupReport, FleetReport, FleetSpec, Traffic};
pub use store::{PutResult, StoreConfig, StoreError, StoreStats, TraceId, TraceStore};
pub use triage::{FailureGroup, FaultSignature, Triage};

#[cfg(test)]
pub(crate) mod testsync {
    //! The chaos plan is process-global; unit tests across this crate's
    //! modules that arm one must serialize on this lock.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn chaos_lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
