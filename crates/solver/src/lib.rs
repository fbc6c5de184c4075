//! A from-scratch bitvector + array constraint solver.
//!
//! This crate stands in for the STP/Z3 solver underneath KLEE in the
//! original system. The pipeline is classical:
//!
//! 1. [`expr`] — a hash-consed expression DAG over bitvectors, booleans,
//!    and arrays (`Read`/`Write` nodes exactly as the paper's §3.2 figures
//!    draw them), with algebraic simplification ([`simplify`]) applied at
//!    construction. Each node carries its [`known`] bits, which decide
//!    index comparisons that can never hold before anything is lowered.
//! 2. [`arrays`] — array-theory elimination: `Read(Write(...))` chains
//!    become ITE chains and base-array reads become fresh variables with
//!    per-index axioms. The cost of this step grows with the two quantities
//!    §3.3.1 identifies — write-chain length and array size — which is what
//!    makes solver stalls (and their elimination by recorded data values)
//!    faithful to the paper.
//! 3. [`bitblast`] + [`cnf`] — Tseitin conversion of the pure bitvector
//!    formula to CNF, lowering each node only at the low bits its
//!    consumers read.
//! 4. [`sat`] — a CDCL SAT solver (two-watched literals, VSIDS, phase
//!    saving, Luby restarts, first-UIP learning) with a deterministic
//!    conflict budget standing in for the paper's 30-second wall-clock
//!    timeout.
//! 5. [`inc`] — the one way into the solver: [`IncrementalSolver`] keeps
//!    persistent elimination/bit-blast caches and one persistent CDCL
//!    instance for the monotonically growing constraint prefixes shepherded
//!    symbolic execution produces, and is the clauses' only persistent
//!    store.
//! 6. [`solve`] — the vocabulary around it: budgets, verdicts, stall
//!    reasons, and models that evaluate expressions.
//! 7. [`witness`] and [`interval`] — answers reached without a search:
//!    an assignment near a model that moves an expression (so it is not
//!    unique), and an unsigned range that holds every value of one (so it
//!    stays inside it).
//!
//! # Example
//!
//! ```
//! use er_solver::expr::{BvOp, CmpKind, ExprPool};
//! use er_solver::{Budget, IncrementalSolver, SatResult};
//!
//! let mut pool = ExprPool::new();
//! let x = pool.var("x", 32);
//! let seven = pool.bv_const(7, 32);
//! let sum = pool.bin(BvOp::Add, x, seven);
//! let target = pool.bv_const(50, 32);
//! let eq = pool.cmp(CmpKind::Eq, sum, target);
//!
//! let mut solver = IncrementalSolver::new();
//! let SatResult::Sat(model) = solver.check(&mut pool, &[eq], &Budget::default()) else {
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
pub mod interval;
pub mod known;
pub mod sat;
pub mod simplify;
pub mod solve;
pub mod witness;

pub use expr::{ArrayRef, BvOp, CmpKind, ExprPool, ExprRef, Sort};
pub use inc::IncrementalSolver;
pub use solve::{Budget, Model, SatResult};
