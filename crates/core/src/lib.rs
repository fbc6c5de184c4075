//! Execution Reconstruction (ER): the paper's primary contribution.
//!
//! ER reproduces a production failure by iterating (Fig. 2 of the paper):
//!
//! 1. **Online monitoring** — the deployed program runs under always-on
//!    PT-style control-flow tracing ([`deploy`]); when the failure occurs,
//!    the trace ships to the analysis engine.
//! 2. **Shepherded symbolic execution** — the trace steers the symbolic
//!    executor down the single failing path ([`shepherd`], built on
//!    [`er_symex`]). If the solver stalls, ER
//! 3. **builds the constraint graph** ([`graph`]) and
//! 4. **selects key data values** ([`select`]): the bottleneck set from the
//!    longest symbolic write chain and the largest accessed symbolic
//!    object, reduced to a cheaper recording set by cost-driven search.
//! 5. **Instruments** the program with `ptwrite` at the chosen sites
//!    ([`instrument`]) and redeploys, waiting for the failure to reoccur.
//!
//! When shepherded execution completes, the final constraint solve yields a
//! concrete [`testcase::TestCase`] guaranteed to drive the program down the
//! same control flow into the same failure; [`reconstruct`] wires the whole
//! loop together and verifies the test case by replaying it.
//!
//! # Example
//!
//! ```
//! use er_core::deploy::Deployment;
//! use er_core::reconstruct::{ErConfig, Outcome, Reconstructor};
//! use er_minilang::compile;
//! use er_minilang::env::Env;
//!
//! // A failure that needs input reconstruction: crash when a*3 == 21.
//! let program = compile(
//!     r#"
//!     fn main() {
//!         let a: u32 = input_u32(0);
//!         if a * 3 == 21 { abort("boom"); }
//!     }
//!     "#,
//! )?;
//! // "Production" sends a stream of requests; occurrence k carries value k.
//! let deployment = Deployment::new(program, |occurrence| {
//!     let mut env = Env::new();
//!     env.push_input(0, &(occurrence as u32).to_le_bytes());
//!     env
//! });
//! let report = Reconstructor::new(ErConfig::default()).reconstruct(&deployment);
//! let Outcome::Reproduced(test) = report.outcome else {
//!     panic!("expected reproduction");
//! };
//! assert_eq!(test.inputs[0].1, 7u32.to_le_bytes());
//! # Ok::<(), er_minilang::CompileError>(())
//! ```

pub mod deploy;
pub mod graph;
pub mod instrument;
pub mod reconstruct;
pub mod select;
pub mod shepherd;
pub mod testcase;

pub use deploy::{Deployment, FailureOccurrence, NextFailing, ReoccurrenceModel};
pub use graph::ConstraintGraph;
pub use instrument::InstrumentedProgram;
pub use reconstruct::{
    ErConfig, OccurrenceInfo, Outcome, ReconstructionReport, ReconstructionSession, Reconstructor,
    SessionStep,
};
pub use select::{RecordingSet, SelectorKind};
pub use testcase::TestCase;
