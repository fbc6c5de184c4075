//! Symbolic execution of the `er-minilang` IR.
//!
//! This crate is the KLEE analogue of the reproduction: it executes IR
//! with a mix of concrete and symbolic values ([`value::SymValue`]),
//! models memory as concrete bytes plus a symbolic overlay and per-object
//! solver arrays ([`mem`]), and — crucially for ER — can *follow a
//! recorded control-flow trace* instead of forking at branches
//! ([`machine::SymMachine::run`]), which is exactly the paper's
//! "shepherded symbolic execution" (§3.2).
//!
//! The executor is concrete-first: instructions whose operands are all
//! concrete run at interpreter speed and never touch the expression pool.
//! Symbolic values enter only through program inputs (`input_*`) and
//! spread by data flow, so a run whose key data values were recorded (and
//! therefore concretized) stays almost entirely on the fast path — the
//! mechanism by which recording collapses the paper's solver stalls.

pub mod machine;
pub mod mem;
pub mod value;

pub use machine::{
    MachineState, Origins, ShepherdStatus, SiteCounts, SymConfig, SymMachine, SymRunResult,
    TraceDivergence,
};
pub use mem::{ObjectId, ObjectName, SymMemory};
pub use value::SymValue;
