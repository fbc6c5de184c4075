//! A from-scratch bitvector + array constraint solver.
//!
//! This crate stands in for the STP/Z3 solver underneath KLEE in the
//! original system. The pipeline is classical:
//!
//! 1. [`expr`] — a hash-consed expression DAG over bitvectors, booleans,
//!    and arrays (`Read`/`Write` nodes exactly as the paper's §3.2 figures
//!    draw them), with algebraic simplification ([`simplify`]) applied at
//!    construction.
//! 2. [`arrays`] — array-theory elimination: `Read(Write(...))` chains
//!    become ITE chains and base-array reads become fresh variables with
//!    per-index axioms. The cost of this step grows with the two quantities
//!    §3.3.1 identifies — write-chain length and array size — which is what
//!    makes solver stalls (and their elimination by recorded data values)
//!    faithful to the paper.
//! 3. [`bitblast`] + [`cnf`] — Tseitin conversion of the pure bitvector
//!    formula to CNF.
//! 4. [`sat`] — a CDCL SAT solver (two-watched literals, VSIDS, phase
//!    saving, Luby restarts, first-UIP learning) with a deterministic
//!    conflict budget standing in for the paper's 30-second wall-clock
//!    timeout.
//! 5. [`inc`] — the incremental engine: persistent elimination/bit-blast
//!    caches and a persistent CDCL instance for the monotonically growing
//!    constraint prefixes shepherded symbolic execution produces.
//! 6. [`solve`] — the façade: assert booleans, check, extract models, and
//!    evaluate expressions under a model.
//!
//! # Example
//!
//! ```
//! use er_solver::expr::{BvOp, CmpKind, ExprPool};
//! use er_solver::solve::{Budget, SatResult, Solver};
//!
//! let mut pool = ExprPool::new();
//! let x = pool.var("x", 32);
//! let seven = pool.bv_const(7, 32);
//! let sum = pool.bin(BvOp::Add, x, seven);
//! let target = pool.bv_const(50, 32);
//! let eq = pool.cmp(CmpKind::Eq, sum, target);
//!
//! let mut solver = Solver::new(&mut pool);
//! solver.assert(eq);
//! let SatResult::Sat(model) = solver.check(&Budget::default()) else {
//!     panic!("satisfiable");
//! };
//! assert_eq!(model.eval(&pool, x), 43);
//! ```

pub mod arrays;
pub mod bitblast;
pub mod cancel;
pub mod cnf;
pub mod expr;
pub mod hash;
pub mod inc;
pub mod sat;
pub mod simplify;
pub mod solve;

pub use expr::{ArrayRef, BvOp, CmpKind, ExprPool, ExprRef, Sort};
pub use inc::IncrementalSolver;
pub use solve::{Budget, Model, SatResult, Solver};
